"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage::

    python3 perfbench/spread.py --seeds 1-10 [--out FILE] nc5 sergeev4 nc6-groth

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
with ``run_seconds`` from ``BENCHMARK.json``.  For each metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
distance between them as a share of the median, next to the metric's bound.
``--out`` also writes every value, with the Python version, ``nproc`` and
the CPU model, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "cpu": cpu_model(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print(f"{workload} seed {seed}: {last['failed']} records failed", file=sys.stderr)
                return 1
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        print(f"== {workload}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:18} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {spread:.4f}  bound {bounds[name]}{flag}")
        result["workloads"][workload] = summary
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
