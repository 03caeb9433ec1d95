"""Command-line frontend wiring the library into reproducible workflows.

Subcommands: calibrate, compress, decompress, metrics, emulate, bench.
Data goes to files or stdout; diagnostics go to stderr; the exit status is
0 iff no error was reported.  Sensor geometry is always passed explicitly
as WxH: density depends on the true pixel count, and inferring it from
sparse event maxima would corrupt it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import bench_encoders
from .calibration import (
    TransformKind,
    calibrate_thresholds,
    load_thresholds,
    save_thresholds,
)
from .errors import EvCompressError
from .events import SensorGeometry, compute_density
from .io import EMULATOR_PATTERNS, EmulatorConfig, emulate, read_descriptor, read_events, write_descriptor, write_events
from .metrics import METRICS_CSV_HEADER, evaluate_window, metrics_csv_row
from .pipeline import PipelineConfig, compress_stream, windowize
from .reconstruct import TimeGrid, render_reconstructed_frame

__all__ = ["main"]

_TRANSFORM_FLAGS = {"dct": TransformKind.DCT, "dtft": TransformKind.DTFT, "dwt": TransformKind.DWT}
DESCRIPTOR_SUFFIX = ".eecv"


def _parse_geometry(text: str) -> SensorGeometry:
    try:
        w_text, h_text = text.lower().split("x")
        return SensorGeometry(height=int(h_text), width=int(w_text))
    except (ValueError, EvCompressError) as exc:
        raise argparse.ArgumentTypeError(f"geometry must be WxH, e.g. 346x260: {exc}") from exc


def _descriptor_path(directory: Path, index: int) -> Path:
    return directory / f"window_{index:06d}{DESCRIPTOR_SUFFIX}"


def _cmd_calibrate(args: argparse.Namespace) -> int:
    events = read_events(args.input, args.format)
    windows = windowize(events, args.window_ms / 1e3, args.geometry)
    if not windows:
        print("no windows: input stream is empty", file=sys.stderr)
        return 1
    densities = [compute_density(w) for w in windows]
    thresholds = calibrate_thresholds(densities)
    save_thresholds(thresholds, args.out)
    print(
        f"calibrated over {len(windows)} windows: "
        f"tau_low={thresholds.tau_low!r} tau_high={thresholds.tau_high!r} "
        f"(density min={min(densities)!r} max={max(densities)!r})"
    )
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    if args.thresholds is None and args.force_transform is None:
        print("--thresholds is required unless --force-transform is given", file=sys.stderr)
        return 2
    thresholds = load_thresholds(args.thresholds) if args.thresholds is not None else None
    events = read_events(args.input, args.format)
    config = PipelineConfig(
        window_duration=args.window_ms / 1e3,
        budget=args.coeffs,
        candidate_count=args.atoms,
        force_transform=_TRANSFORM_FLAGS[args.force_transform] if args.force_transform else None,
    )
    descriptors, log = compress_stream(events, args.geometry, config, thresholds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, descriptor in enumerate(descriptors):
        write_descriptor(descriptor, _descriptor_path(out_dir, index))
    if args.log is not None:
        log.to_csv(args.log)
    print(f"compressed {len(events)} events into {len(descriptors)} descriptors in {out_dir}")
    return 0


def _load_descriptor_dir(directory: Path) -> dict[int, Path]:
    paths = {}
    for path in sorted(directory.glob(f"window_*{DESCRIPTOR_SUFFIX}")):
        paths[int(path.stem.split("_")[1])] = path
    return paths


def _cmd_decompress(args: argparse.Namespace) -> int:
    grid = TimeGrid(args.grid)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    indexed = _load_descriptor_dir(Path(args.descriptors))
    if not indexed:
        print(f"no descriptor files in {args.descriptors}", file=sys.stderr)
        return 1
    for index, path in indexed.items():
        frame = render_reconstructed_frame(read_descriptor(path), grid)
        np.savetxt(out_dir / f"frame_{index:06d}.txt", frame, fmt="%.9g")
    print(f"reconstructed {len(indexed)} frames into {out_dir}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    indexed = _load_descriptor_dir(Path(args.descriptors))
    if not indexed:
        print(f"no descriptor files in {args.descriptors}", file=sys.stderr)
        return 1
    descriptors = {index: read_descriptor(path) for index, path in indexed.items()}
    first = descriptors[min(descriptors)]
    events = read_events(args.events, args.format)
    windows = windowize(events, first.duration, first.geometry)
    window_indices = set(range(len(windows)))
    missing = sorted(window_indices - set(descriptors))
    extra = sorted(set(descriptors) - window_indices)
    if missing or extra:
        print(
            f"window/descriptor mismatch: missing descriptors for windows {missing}, "
            f"descriptors without windows {extra}",
            file=sys.stderr,
        )
        return 1
    grid = TimeGrid(args.grid)
    rows = [METRICS_CSV_HEADER]
    reports = []
    for index, window in enumerate(windows):
        descriptor = descriptors[index]
        report = evaluate_window(window, descriptor, grid)
        reports.append(report)
        rows.append(metrics_csv_row(index, descriptor.transform.name, descriptor.budget, report))
    Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    mean_mse = float(np.mean([r.mse for r in reports]))
    mean_ssim = float(np.mean([r.ssim for r in reports]))
    mean_emd = float(np.mean([r.emd for r in reports]))
    print(f"windows={len(reports)} mean mse={mean_mse!r} ssim={mean_ssim!r} emd={mean_emd!r}")
    return 0


def _cmd_emulate(args: argparse.Namespace) -> int:
    config = EmulatorConfig(
        geometry=args.geometry,
        duration=args.duration,
        rate=args.rate,
        pattern=args.pattern,
        speed=args.speed,
        polarity_bias=args.bias,
        seed=args.seed,
    )
    events = emulate(config)
    write_events(args.out, events, args.format)
    print(f"emulated {len(events)} events ({args.pattern}) into {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    events = read_events(args.input, args.format)
    report = bench_encoders(
        events,
        args.geometry,
        budget=args.coeffs,
        candidate_count=args.atoms,
        repetitions=args.reps,
        window_duration=args.window_ms / 1e3,
    )
    print(f"{'Method':<8}{'Time (ms)':>16}{'Speed (kevents/s)':>22}{'Relative Efficiency':>22}")
    rows = ["method,mean_ms,std_ms,kevents_per_s,relative_efficiency_pct"]
    for transform in (TransformKind.DCT, TransformKind.DTFT, TransformKind.DWT):
        b = report.encoders[transform]
        print(
            f"{transform.name:<8}{b.mean_ms:>9.2f}±{b.std_ms:<6.2f}"
            f"{b.throughput_kev_s:>16.1f}{b.relative_efficiency:>21.1f}%"
        )
        rows.append(
            f"{transform.name},{b.mean_ms!r},{b.std_ms!r},{b.throughput_kev_s!r},{b.relative_efficiency!r}"
        )
    if not report.timer_reliable:
        print("warning: timer resolution coarser than 1% of mean window time; results unreliable", file=sys.stderr)
    if args.out is not None:
        Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evcompress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "binary"), default="csv", help="event file format")

    p = sub.add_parser("calibrate", help="fit density thresholds from a stream")
    p.add_argument("--input", required=True, help="event file")
    p.add_argument("--window-ms", type=float, required=True, help="window duration in milliseconds")
    p.add_argument("--geometry", type=_parse_geometry, required=True, help="sensor size as WxH")
    p.add_argument("--out", required=True, help="threshold file to write")
    add_format(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("compress", help="compress a stream into window descriptors")
    p.add_argument("--input", required=True, help="event file")
    p.add_argument("--thresholds", default=None, help="threshold file from calibrate")
    p.add_argument("--window-ms", type=float, required=True)
    p.add_argument("--geometry", type=_parse_geometry, required=True)
    p.add_argument("--coeffs", type=int, default=16, help="retained coefficients per pixel (budget)")
    p.add_argument("--atoms", type=int, default=64, help="candidate atoms per window")
    p.add_argument("--out", required=True, help="descriptor output directory")
    p.add_argument("--force-transform", choices=sorted(_TRANSFORM_FLAGS), default=None)
    p.add_argument("--log", default=None, help="decision log CSV path")
    add_format(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="render reconstructed frames from descriptors")
    p.add_argument("--descriptors", required=True, help="descriptor directory")
    p.add_argument("--grid", type=int, default=128, help="reconstruction samples per window")
    p.add_argument("--out", required=True, help="frame output directory")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("metrics", help="score descriptors against the original stream")
    p.add_argument("--events", required=True, help="original event file")
    p.add_argument("--descriptors", required=True, help="descriptor directory")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--out", required=True, help="metrics CSV path")
    add_format(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("emulate", help="generate a synthetic event stream")
    p.add_argument("--geometry", type=_parse_geometry, required=True)
    p.add_argument("--duration", type=float, required=True, help="stream length in seconds")
    p.add_argument("--rate", type=float, required=True, help="events per pixel per second")
    p.add_argument("--pattern", choices=EMULATOR_PATTERNS, default="uniform-noise")
    p.add_argument("--speed", type=float, default=0.0, help="pattern speed in pixels per second")
    p.add_argument("--bias", type=float, default=0.5, help="probability of +1 polarity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="event file to write")
    add_format(p)
    p.set_defaults(func=_cmd_emulate)

    p = sub.add_parser("bench", help="compare encoder throughput on a stream")
    p.add_argument("--input", required=True, help="event file")
    p.add_argument("--geometry", type=_parse_geometry, required=True)
    p.add_argument("--window-ms", type=float, default=33.0)
    p.add_argument("--coeffs", type=int, default=8)
    p.add_argument("--atoms", type=int, default=64)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", default=None, help="optional CSV path")
    add_format(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvCompressError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
