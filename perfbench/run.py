"""agentmeter benchmark: three workloads, end-to-end metrics, per-layer tracing.

    python3 perfbench/run.py                  # every workload, untraced then traced
    python3 perfbench/run.py --workload offline_pages --seed 1 --trace 0

With ``--workload`` the named workload runs in this process, and the last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Without it, every workload runs in
its own process, untraced and then traced, and one row per workload is
printed. The exit code is non-zero when any output check fails, and when
agentmeter cannot be imported from this checkout's ``src``.

A run measures for about ``--seconds`` (whole passes over the workload's
task pool), which defaults to ``run_seconds`` of ``BENCHMARK.json``, so
the run length is set in that one place.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from setup_probe import ROOT, import_program

HERE = Path(__file__).resolve().parent


def run_seconds() -> float:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def run_one(measure, args) -> int:
    if args.workload not in measure.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(measure.WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = run_seconds() if args.seconds is None else args.seconds
    return measure.run(measure.WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))


def run_all(measure, args) -> int:
    status = 0
    rows = []
    for name in measure.WORKLOADS:
        digests = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            digests[trace] = next((ln.split()[-1] for ln in lines if ln.startswith("digest ")), None)
            if trace == 0:
                rows.append((name, json.loads(lines[-1])["metrics"]))
        if len(digests) == 2 and digests[0] != digests[1]:
            print(f"check failed: {name} results differ between the untraced and traced runs")
            status = 1
    print()
    for name, metrics in rows:
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
        print(f"{name:14s} {cells}")
    print(f"overall: {'PASS' if status == 0 else 'FAIL'}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import agentmeter from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import measure

    return run_one(measure, args) if args.workload else run_all(measure, args)


if __name__ == "__main__":
    sys.exit(main())
