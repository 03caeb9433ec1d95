"""Run the benchmark over several seeds and summarise how steady it is.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --seeds 1-10 --seconds 10 [--trace] [--label set1] \
        [--workload flicker ...]

For each workload, the seeds run one after another, each in its own
process.  For every metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  With ``--trace``
each seed also gets a traced run; the per-layer medians are listed, and the
tracing overhead is the traced median of each end-to-end timing against the
untraced one.  The tables are also written to
``perfbench/_out/steady-<label>.md``, and every run's result line to
``perfbench/_out/steady-<label>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from scenes import WORKLOADS  # noqa: E402

BOUNDS_FILE = HERE.parent / "BENCHMARK.json"


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 11-15,20")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true", help="also make a traced run per seed")
    parser.add_argument("--label", default="steady")
    args = parser.parse_args(argv)

    bench = json.loads(BOUNDS_FILE.read_text()) if BOUNDS_FILE.exists() else {}
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    seconds = args.seconds or bench.get("run_seconds", 10)
    seeds = _seeds(args.seeds)
    lines = [f"# {args.label}: seeds {args.seeds}, --seconds {seconds}", ""]
    raw = []
    for workload in args.workload or list(WORKLOADS):
        runs = [_run(workload, s, seconds, 0) for s in seeds]
        traced = [_run(workload, s, seconds, 1) for s in seeds] if args.trace else []
        raw += [{"workload": workload, "seed": s, "trace": t, **r}
                for t, group in ((0, runs), (1, traced)) for s, r in zip(seeds, group)]
        failed = [(r["failed"], r["attempted"]) for r in runs + traced]
        lines += [f"## {workload}", "",
                  f"{len(runs)} runs, correct in all: {all(r['correct'] for r in runs + traced)}, "
                  f"failed/attempted: {sorted(set(f'{f}/{a}' for f, a in failed))}", "",
                  "| metric | unit | Q1 | median | Q3 | spread | bound |", "|---|---|---|---|---|---|---|"]
        for name, entry in runs[0]["metrics"].items():
            q1, med, q3 = _quartiles([r["metrics"][name]["value"] for r in runs])
            spread = (q3 - q1) / med if med else float("nan")
            lines.append(f"| `{name}` | {entry['unit']} | {q1:.6g} | {med:.6g} | {q3:.6g} | {spread:.4f} "
                         f"| {bounds.get(name, '')} |")
        if traced:
            lines += ["", "| per-layer metric | unit | median | Q1 | Q3 |", "|---|---|---|---|---|"]
            for name, entry in traced[0]["metrics"].items():
                if name.startswith("traced."):
                    continue
                q1, med, q3 = _quartiles([r["metrics"][name]["value"] for r in traced])
                lines.append(f"| `{name}` | {entry['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} |")
            lines += ["", "| tracing overhead | untraced median | traced median | traced / untraced |",
                      "|---|---|---|---|"]
            for name, entry in traced[0]["metrics"].items():
                if not name.startswith("traced."):
                    continue
                base = name.removeprefix("traced.")
                plain = statistics.median(r["metrics"][base]["value"] for r in runs)
                with_trace = statistics.median(r["metrics"][name]["value"] for r in traced)
                lines.append(f"| `{base}` ({entry['unit']}) | {plain:.6g} | {with_trace:.6g} "
                             f"| {with_trace / plain:.3f} |")
        lines.append("")
    text = "\n".join(lines)
    print(text)
    out = HERE / "_out" / f"steady-{args.label}.md"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n", encoding="utf-8")
    out.with_suffix(".jsonl").write_text("".join(json.dumps(r) + "\n" for r in raw), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
