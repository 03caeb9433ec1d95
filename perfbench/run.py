"""End-to-end benchmark of evcompress: calibrate, compress, decode, evaluate.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload flicker --seed 1 --seconds 25 --trace 0

One run is one fresh single-threaded process.  It generates the workload's
stream and calibration split from the seed (``scenes.py``), then drives the
program's public functions the way ``evcompress calibrate`` -> ``compress``
-> ``metrics`` do, timing each call with ``perf_counter_ns``.  The measured
part is a sequence of whole passes over the stream; each pass re-ingests the
file, so every window is compressed exactly once after ingest, as the CLI
does.  Ingest and decode repeat within a pass until each has run a second.
The first pass also evaluates a quarter of the windows; passes repeat while
the measured time plus half a pass stays under ``--seconds``.  Rates are the
median over passes; latencies are the median per transform, and the mean of
the slowest tenth, over all windows of all passes.
Outputs are then checked against independent computations (``checks.py``),
outside every timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (``tracing.py``) with ``--trace 1``.
``--corrupt KIND`` damages one program output before the checks run, to show
that the checks fire; it is never used for measurement.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere in the process

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"  # generated inputs and descriptors, removed at the end of a run
OUT = HERE / "_out"  # span dumps of traced runs
SETUP_REPEATS = 5
PHASE_MIN_S = 1.0  # shortest ingest and decode phase in a pass
EVENT_RECORD_BYTES = 13  # <f8,<u2,<u2,<i1
GRID_SAMPLES = 128
# Evaluate is the slowest phase, so the first pass evaluates every fourth
# window in order of size: every seed's windows have the same sizes, so the
# evaluated set has the same make-up on every seed.
EVALUATE_EVERY = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_kev_s": "kev/s",
    "compress_kev_s": "kev/s",
    "window_ms_dct": "ms",
    "window_ms_dtft": "ms",
    "window_ms_dwt": "ms",
    "window_ms_tail10": "ms",
    "decode_windows_s": "windows/s",
    "evaluate_windows_s": "windows/s",
    "peak_rss_mb": "MB",
    "compression_ratio": "ratio",
    "mean_mse": "mse",
    "mean_ssim": "ssim",
    "mean_emd": "emd",
}


sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import scenes  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time to fill with passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=sorted(checks.CORRUPTIONS), default=None,
                        help="damage one output before the checks (self-test of the checks)")
    return parser.parse_args(argv)


# Run in a fresh interpreter, which has not loaded numpy yet, as the CLI's has not.
_TIMED_IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter_ns()
import evcompress
print(time.perf_counter_ns() - started)
"""


def _import_program():
    """Import evcompress from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import evcompress  # the package imports every module it is made of

    if Path(evcompress.__file__).resolve().parent != (SRC / "evcompress").resolve():
        raise SystemExit(f"error: imported evcompress from {evcompress.__file__}, not from {SRC}")
    return evcompress


def _time_import() -> int:
    """Nanoseconds ``import evcompress`` takes in a fresh child interpreter."""
    done = subprocess.run([sys.executable, "-c", _TIMED_IMPORT, str(SRC)], capture_output=True, text=True,
                          timeout=60, check=True)
    return int(done.stdout.strip().splitlines()[-1])


class Pass:
    """What one pass over the stream produced, and how long each part took."""

    def __init__(self):
        self.events = None  # the program's events and windows, kept for the checks
        self.windows = None
        self.ingests = 0
        self.decodes = 0
        self.ingest_ns = 0
        self.compress_ns = 0
        self.decode_ns = 0
        self.evaluate_ns = 0
        self.latency_ns: list = []  # compress_window + write_descriptor per window, None if it failed
        self.transforms: list = []
        self.unfaithful: set[int] = set()  # windows whose file is not the descriptor rounded to float32
        self.reports: dict = {}  # window -> (mse, ssim, emd) for the windows evaluated, None if it failed
        self.paths: list[Path] = []
        self.failed: set[int] = set()  # windows for which a call into the program raised

    @property
    def measured_ns(self) -> int:
        return self.ingest_ns + self.compress_ns + self.decode_ns + self.evaluate_ns


def run_pass(ec, workload, stream_path, out_dir, geometry, config, thresholds, grid, tracer,
             evaluate: bool) -> Pass:
    io, pipeline, pruning, metrics = ec.io, ec.pipeline, ec.pruning, ec.metrics
    ns = time.perf_counter_ns
    out = Pass()
    out_dir.mkdir(parents=True)

    # Ingest is repeated until it has run PHASE_MIN_S, so that its rate
    # settles on small streams; only the last ingest's windows go on.
    while out.ingest_ns < PHASE_MIN_S * 1e9:
        events = windows = None
        started = ns()
        events = io.read_events(stream_path, workload.format)
        windows = pipeline.windowize(events, workload.window_s, geometry)
        out.ingest_ns += ns() - started
        out.ingests += 1
    out.events, out.windows = events, windows
    out.paths = [out_dir / f"window_{i:06d}.eecv" for i in range(len(windows))]

    # Every descriptor is held until the phase ends, as compress_stream holds
    # them for the compress command, so the collector walks what it walks there.
    latency, transforms, descriptors = out.latency_ns, out.transforms, []
    started = ns()
    for index, window in enumerate(windows):
        begin = ns()
        if tracer is not None:
            tracer.columns(window)
        try:
            descriptor, _ = pipeline.compress_window(window, config, thresholds, window_index=index)
            io.write_descriptor(descriptor, out.paths[index])
        except ec.EvCompressError as exc:
            print(f"window {index}: compress failed: {exc}", file=sys.stderr)
            out.failed.add(index)
            descriptor = None
        latency.append(None if descriptor is None else ns() - begin)
        transforms.append(None if descriptor is None else descriptor.transform)
        descriptors.append(descriptor)
    out.compress_ns = ns() - started
    out.unfaithful = {index for index, d in enumerate(descriptors)
                      if d is not None and not checks.written_matches_file(d, out.paths[index])}
    descriptors = descriptor = None

    # Decode, like ingest, is repeated until it has run PHASE_MIN_S; each
    # round reads every file afresh.
    while True:
        for index, path in enumerate(out.paths):
            if transforms[index] is None:
                continue
            begin = ns()
            try:
                pruning.to_dense_tensor(io.read_descriptor(path))
            except ec.EvCompressError as exc:
                print(f"window {index}: decode failed: {exc}", file=sys.stderr)
                out.failed.add(index)
                continue
            out.decode_ns += ns() - begin
        out.decodes += 1
        if out.decode_ns == 0 or out.decode_ns >= PHASE_MIN_S * 1e9:
            break

    if evaluate:
        # Each descriptor is read back once more, untimed, as the metrics
        # command reads it.  Interleaving evaluate with the timed decode made
        # the first pass's decode about a quarter slower than later passes'.
        read = tracer.original(io, "read_descriptor") if tracer is not None else io.read_descriptor
        by_size = sorted(range(len(windows)), key=lambda i: len(windows[i].events))
        for index in sorted(by_size[::EVALUATE_EVERY]):
            window = windows[index]
            report = None
            if transforms[index] is not None:
                try:
                    descriptor = read(out.paths[index])
                    begin = ns()
                    report = metrics.evaluate_window(window, descriptor, grid)
                    out.evaluate_ns += ns() - begin
                except ec.EvCompressError as exc:
                    print(f"window {index}: evaluate failed: {exc}", file=sys.stderr)
            if report is None:
                out.failed.add(index)
            out.reports[index] = None if report is None else (report.mse, report.ssim, report.emd)
    return out


def calibrate_once(ec, workload, path, geometry, thresholds_path):
    """The ``evcompress calibrate`` step, then reloading what it saved."""
    started = time.perf_counter_ns()
    events = ec.io.read_events(path, workload.format)
    windows = ec.pipeline.windowize(events, workload.window_s, geometry)
    densities = [ec.events.compute_density(w) for w in windows]
    thresholds = ec.calibration.calibrate_thresholds(densities)
    ec.calibration.save_thresholds(thresholds, thresholds_path)
    loaded = ec.calibration.load_thresholds(thresholds_path)
    return time.perf_counter_ns() - started, loaded


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "evcompress" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'evcompress'} is missing", file=sys.stderr)
        return 2
    workload = scenes.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, work) -> int:
    suffix = ".bin" if workload.format == "binary" else ".csv"
    stream_path = work / f"stream{suffix}"
    calibration_path = work / f"calibration{suffix}"
    scenes.write_events(scenes.make_events(workload.name, args.seed, "stream"), stream_path, workload.format)
    scenes.write_events(scenes.make_events(workload.name, args.seed, "calibration"), calibration_path,
                        workload.format)
    gc.collect()

    ec = _import_program()
    geometry = ec.SensorGeometry(height=scenes.HEIGHT, width=scenes.WIDTH)
    setup_ns = []
    for rep in range(SETUP_REPEATS):
        elapsed, thresholds = calibrate_once(ec, workload, calibration_path, geometry,
                                             work / f"thresholds-{rep}.txt")
        setup_ns.append(_time_import() + elapsed)

    config = ec.PipelineConfig(window_duration=workload.window_s, budget=workload.budget,
                               candidate_count=workload.atoms)
    grid = ec.TimeGrid(GRID_SAMPLES)
    if args.corrupt in checks.BEFORE_PASSES:
        checks.corrupt(args.corrupt, None, ec)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(ec)
        tracer.install()

    # The first pass also evaluates (the slowest phase, and deterministic);
    # later passes repeat ingest, compress and decode only, so that the faster
    # phases get more samples in the same time.  A pass is added while the
    # measured time would then end nearer --seconds than it is now.
    passes: list[Pass] = []
    last = None
    while not passes or (sum(p.measured_ns for p in passes) + (last.measured_ns - last.evaluate_ns) / 2
                         < args.seconds * 1e9):
        if last is not None:  # only the last pass keeps its program objects
            last.events = last.windows = None
        gc.collect()
        if tracer is not None:
            tracer.start_pass()
        last = run_pass(ec, workload, stream_path, work / f"pass{len(passes)}", geometry, config,
                        thresholds, grid, tracer, evaluate=not passes)
        if tracer is not None:
            tracer.end_pass(last)
        passes.append(last)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    if args.corrupt and args.corrupt not in checks.BEFORE_PASSES:
        checks.corrupt(args.corrupt, passes, ec)
    checks_started = time.perf_counter()
    verdict = checks.check_run(ec, workload, args.seed, passes, thresholds, grid)
    checks_s = time.perf_counter() - checks_started
    for line in verdict.unexpected[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in verdict.known[:3]:
        print(f"known fault: {line}", file=sys.stderr)
    # One operation is one window taken through a pass: compress, write,
    # decode, evaluate where the pass evaluates, and the checks of its
    # output.  Every pass wrote the same bytes (checked), so a window whose
    # output fails a check fails in every pass.
    attempted = sum(len(p.paths) for p in passes)
    failed = sum(len(p.failed | verdict.failed_windows) for p in passes) + len(verdict.run_failures)

    events = len(last.events)
    windows = len(last.windows)
    first = passes[0]
    latency = [t for p in passes for t in p.latency_ns if t is not None]
    by_transform: dict[str, list[int]] = {}
    for p in passes:
        for kind, t in zip(p.transforms, p.latency_ns):
            if kind is not None:
                by_transform.setdefault(kind.name.lower(), []).append(t)
    reports = [r for r in first.reports.values() if r is not None]
    per_pass = lambda rate: statistics.median(rate(p) for p in passes)  # noqa: E731
    values = {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "ingest_kev_s": per_pass(lambda p: events * p.ingests / p.ingest_ns * 1e6),
        "compress_kev_s": per_pass(lambda p: events / p.compress_ns * 1e6),
        "window_ms_dct": _median_ms(by_transform.get("dct")),
        "window_ms_dtft": _median_ms(by_transform.get("dtft")),
        "window_ms_dwt": _median_ms(by_transform.get("dwt")),
        "window_ms_tail10": _tail_mean_ms(latency, 0.1),
        "decode_windows_s": per_pass(lambda p: windows * p.decodes / p.decode_ns * 1e9),
        "evaluate_windows_s": len(reports) / first.evaluate_ns * 1e9,
        "peak_rss_mb": peak_rss_mb,
        "compression_ratio": EVENT_RECORD_BYTES * events / sum(p.stat().st_size for p in last.paths),
        "mean_mse": float(np.mean([r[0] for r in reports])),
        "mean_ssim": float(np.mean([r[1] for r in reports])),
        "mean_emd": float(np.mean([r[2] for r in reports])),
    }
    print(f"workload={workload.name} seed={args.seed} passes={len(passes)} windows/pass={windows} "
          f"events/pass={events} ingests={[p.ingests for p in passes]} decodes={[p.decodes for p in passes]} latency samples={len(latency)} "
          f"measured_s={sum(p.measured_ns for p in passes) / 1e9:.2f} checks_s={checks_s:.2f}", file=sys.stderr)
    if args.trace:
        metrics = tracer.metrics(values, END_TO_END_UNITS, OUT / f"trace-{workload.name}-{args.seed}.jsonl")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not verdict.unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _tail_mean_ms(samples, share):
    """Mean of the slowest ``share`` of the samples (at least one)."""
    slowest = sorted(samples)[-max(1, int(len(samples) * share)):]
    return statistics.fmean(slowest) / 1e6


def _median_ms(samples):
    return statistics.median(samples) / 1e6 if samples else float("nan")


if __name__ == "__main__":
    sys.exit(main())
