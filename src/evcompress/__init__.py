"""Density-adaptive transform compression for event-camera streams.

Event windows are classified by normalized event density against calibrated
quartile thresholds; each regime gets the transform family that represents
it most sparsely (wavelets / complex exponentials / cosines).  Coefficients
are accumulated directly at event timestamps from the window's signed
impulse train, pruned to a fixed per-pixel budget, and packed into compact
descriptors that reconstruct into dense frames for downstream perception.
"""

from .bench import BenchReport, EncoderBenchmark, bench_encoders
from .calibration import (
    DensityThresholds,
    Regime,
    TransformKind,
    calibrate_thresholds,
    classify_regime,
    load_thresholds,
    save_thresholds,
    select_transform,
)
from .errors import (
    CalibrationError,
    ConfigurationError,
    ContractError,
    EvCompressError,
    FormatError,
    MetricUndefinedError,
    ParseError,
    PipelineError,
    ValidationError,
)
from .events import (
    Event,
    EventArray,
    EventWindow,
    SensorGeometry,
    compute_density,
    make_window,
    normalize_times,
)
from .io import (
    EmulatorConfig,
    emulate,
    read_descriptor,
    read_events,
    write_descriptor,
    write_events,
)
from .metrics import (
    METRICS_CSV_HEADER,
    MetricsReport,
    emd_temporal,
    evaluate_window,
    event_time_histogram,
    mse,
    ssim,
)
from .pipeline import (
    DECISION_LOG_HEADER,
    DecisionLog,
    DensitySnapshot,
    EncodeTimeStats,
    MonitorSummary,
    PipelineConfig,
    compress_stream,
    compress_window,
    monitor_summary,
    windowize,
)
from .pruning import (
    DenseTensor,
    RetainedCoefficient,
    RetentionPolicy,
    WindowDescriptor,
    pack_descriptor,
    prune_dct,
    prune_magnitude,
    retention_budget,
    to_dense_tensor,
)
from .reconstruct import (
    TimeGrid,
    reconstruct_pixel,
    render_original_frame,
    render_reconstructed_frame,
    reconstruct_window,
)
from .transforms import (
    AtomGrid,
    AtomIndex,
    CoefficientVector,
    atom_rows,
    encode_pixel,
    encode_window,
)

__version__ = "0.1.0"
