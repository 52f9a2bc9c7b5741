"""Benchmark of ``supertower verify`` on fixed descriptors.

Usage::

    python3 perfbench/run.py --workload nc5 --seed 1 --seconds 30 --trace 0

Each sample starts a fresh interpreter (``child.py``) that runs
``verify --format json --jobs 1`` through ``cli.main`` with the library
under ``src/`` of this checkout.  One process runs at a time.  The seed
only permutes the order of the workload's ``--suites`` list (seed 0 keeps
the default order) and sets ``PYTHONHASHSEED``; the total work is the
same for every seed.

``--trace 0`` repeats verify samples while another one fits in
``--seconds``, then fills the rest with set-up-only samples, and reports the
end-to-end metrics.  ``--trace 1`` runs one plain sample and one sample
with ``tracer.py`` installed, and reports the per-layer metrics.  Every
report is checked against ``reference.json``: with the default order its
bytes must match, otherwise its records must match as a multiset.  A sample
that crashes, times out or produces a mismatched report counts all of its
expected records as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, with sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

# a run, set-up and every sample included, ends within this many seconds
RUN_LIMIT_S = 170.0

ALL_SUITES = ["axioms", "frobenius", "bialgebra", "pairing", "adjunction",
              "psi", "S2", "weyl", "fock", "faithfulness"]

# must_fire: spans the traced run must record at least once, so that a
# renamed or bypassed library function fails the run instead of reading 0
WORKLOADS = {
    "nc5": {
        "descriptor": {"nilcoxeter": {"n_max": 5, "d": 1, "eps": 1}},
        "suites": ALL_SUITES,
        "must_fire": ["frobenius.check_frobenius", "heisenberg.smash_multiply",
                      "grothendieck.basis_nabla", "superalgebra.product_fill"],
    },
    "sergeev4": {
        "descriptor": {"wreath": {"base": "clifford", "n_max": 4}},
        "suites": ALL_SUITES,
        "must_fire": ["linalg.solve", "superalgebra.hom_validate",
                      "frobenius.nakayama_matrix", "superalgebra.product_fill",
                      "towers.build_wreath"],
    },
    "nc6-groth": {
        "descriptor": {"nilcoxeter": {"n_max": 6, "d": 1, "eps": 0, "frobenius_cap": 0}},
        "suites": ["bialgebra", "pairing", "adjunction", "weyl", "fock", "faithfulness"],
        "must_fire": ["linalg.add_row", "heisenberg.categorified_weyl_shadow",
                      "superalgebra.induce_module", "heisenberg.smash_multiply"],
    },
    # tiny descriptors for smoke.py; not part of BENCHMARK.json
    "smoke-nc3": {
        "descriptor": {"nilcoxeter": {"n_max": 3, "d": 1, "eps": 1}},
        "suites": ALL_SUITES,
        "must_fire": ["cli.build_tower", "heisenberg.smash_multiply"],
    },
    "smoke-sergeev2": {
        "descriptor": {"wreath": {"base": "clifford", "n_max": 2}},
        "suites": ALL_SUITES,
        "must_fire": ["cli.build_tower", "linalg.solve"],
    },
}

END_TO_END_UNITS = {
    "verify_s": "s", "verify_max_s": "s", "setup_s": "s", "suites_s": "s",
    "peak_rss_mb": "MB", "check_pass_ratio": "ratio",
}


def suite_order(workload: str, seed: int) -> list[str]:
    order = list(WORKLOADS[workload]["suites"])
    if seed != 0:
        random.Random(seed).shuffle(order)
    return order


# -- correctness -------------------------------------------------------------


def records_digest(records: list) -> str:
    """Digest of a record list that ignores the order of the records."""
    lines = sorted(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report_failures(ref: dict, default_order: bool, exit_code, text: str | None) -> int:
    """Records counted as failed for one sample: none, or all expected ones."""
    expected = ref["records"]
    if exit_code != 0 or text is None:
        return expected
    try:
        data = json.loads(text)
        summary, records = data["summary"], data["records"]
    except (ValueError, KeyError, TypeError):
        return expected
    if summary != {"fail": 0, "pass": expected, "total": expected}:
        return expected
    if default_order:
        ok = hashlib.sha256(text.encode()).hexdigest() == ref["bytes_sha256"]
    else:
        ok = records_digest(records) == ref["records_sha256"]
    return 0 if ok else expected


# -- samples -----------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.order = suite_order(workload, seed)
        self.default_order = self.order == list(self.spec["suites"])
        self.ref = load_reference().get(workload)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tag = f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32),
                        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def sample(self, mode: str, trace: bool = False) -> dict:
        """Run one child; returns its stamps relative to its start, and rusage."""
        report = WORK / f"report-{self.tag}.json"
        result = WORK / f"result-{self.tag}.json"
        for p in (report, result):
            p.unlink(missing_ok=True)
        job = {"src": str(SRC), "mode": mode, "trace": trace,
               "descriptor": self.spec["descriptor"], "suites": self.order,
               "report": str(report), "result": str(result)}
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                                env=self.env, cwd=str(ROOT), stdin=subprocess.DEVNULL,
                                stdout=sys.stderr.fileno())
        status, rusage = _wait(proc, self.deadline)
        out = {"ok": False, "rss_mb": rusage.ru_maxrss / 1024.0, "wall": time.monotonic() - t0}
        if status == 0 and result.exists():
            res = json.loads(result.read_text())
            out.update(ok=True, exit=res["exit"], trace=res.get("trace"),
                       end=res["end"] - t0, setup=res.get("setup_end", res["end"]) - t0)
            if mode == "verify":
                text = report.read_text() if report.exists() else None
                out["report"] = text
        for p in (report, result):
            p.unlink(missing_ok=True)
        return out

    def failures(self, s: dict) -> int:
        if not s["ok"]:
            return self.ref["records"]
        return report_failures(self.ref, self.default_order, s["exit"], s.get("report"))

    def remaining(self) -> float:
        return self.deadline - time.monotonic()


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its own rusage; kill it at ``deadline``."""
    killed = False
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline and not killed:
            killed = True
            proc.kill()
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- modes -------------------------------------------------------------------


def run_timed(runner: Runner, seconds: float):
    start = time.monotonic()
    verify, setup_only, failed = [], [], 0
    while True:
        s = runner.sample("verify")
        failed += runner.failures(s)
        verify.append(s)
        if not s["ok"]:
            break
        longest = max(v["wall"] for v in verify)
        if time.monotonic() - start + longest > seconds or runner.remaining() < 2 * longest:
            break
    if all(v["ok"] for v in verify):
        longest = max(v["setup"] for v in verify)
        while time.monotonic() - start + longest <= seconds and runner.remaining() > 2 * longest:
            s = runner.sample("setup")
            if not s["ok"]:
                break
            setup_only.append(s)
    attempted = runner.ref["records"] * len(verify)
    done = [v for v in verify if v["ok"]] or verify
    walls = [v.get("end", v["wall"]) for v in done]
    setups = [v.get("setup", v["wall"]) for v in done] + [s["setup"] for s in setup_only]
    metrics = {
        "verify_s": statistics.median(walls),
        "verify_max_s": max(walls),
        "setup_s": statistics.median(setups),
        "suites_s": statistics.median(v.get("end", v["wall"]) - v.get("setup", v["wall"]) for v in done),
        "peak_rss_mb": statistics.median(v["rss_mb"] for v in done),
        "check_pass_ratio": 1.0 - failed / attempted,
    }
    counts = {"verify_s": len(walls), "verify_max_s": len(walls), "setup_s": len(setups),
              "suites_s": len(walls), "peak_rss_mb": len(walls), "check_pass_ratio": len(verify)}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}  ({counts[name]} samples)")
    print(f"check_fail_ratio = {failed / attempted:.6g}  ({failed} of {attempted} expected records failed)")
    return attempted, failed, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(runner: Runner):
    plain = runner.sample("verify")
    traced = runner.sample("verify", trace=True) if plain["ok"] else plain
    failed = runner.failures(plain) + runner.failures(traced)
    attempted = 2 * runner.ref["records"]
    if not traced["ok"]:
        raise SystemExit(f"traced {runner.workload} sample did not finish")
    trace = traced["trace"]
    out = WORK / f"trace-{runner.tag}.json"
    out.write_text(json.dumps(trace, indent=1))
    print(f"trace written to {out}")
    silent = [n for n in runner.spec["must_fire"] if trace["spans"].get(n, {}).get("calls", 0) == 0]
    if silent:
        raise SystemExit(f"spans never fired on {runner.workload}: {', '.join(silent)}")
    metrics = per_layer_metrics(trace, traced["end"] / plain["end"])
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return attempted, failed, metrics


# -- per-layer metrics ---------------------------------------------------------

# (span, report calls): self time is always reported
SPAN_METRICS = [
    ("frobenius.check_frobenius", False),
    ("frobenius.nakayama_matrix", True),
    ("linalg.solve", True),
    ("linalg.invert", True),
    ("frobenius.check_dual_iso", False),
    ("superalgebra.hom_validate", True),
    ("superalgebra.validate_automorphism", False),
    ("towers.check_tower_axioms", False),
    ("linalg.add_row", True),
    ("superalgebra.induce_module", True),
    ("superalgebra.restrict_module", True),
    ("superalgebra.hom_graded_dim", True),
    ("heisenberg.categorified_weyl_shadow", False),
    ("heisenberg.smash_multiply", True),
    ("heisenberg.fock_act", True),
    ("grothendieck.basis_nabla", True),
    ("grothendieck.basis_delta", True),
    ("towers.build_nilcoxeter", False),
    ("towers.build_wreath", False),
]

COUNT_METRICS = ["superalgebra.basis_product.calls", "linalg.fraction_new.calls",
                 "ground.elem_new.calls", "ground.mul.calls", "grothendieck.pairing.calls",
                 "towers.rho.builds", "linalg.add_row.nnz_in"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(trace: dict, overhead: float) -> dict:
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    out = {}
    for name, with_calls in SPAN_METRICS:
        if with_calls:
            out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (spans.get(name, {}).get("self_s", 0.0), "s")
    for name in COUNT_METRICS:
        out[name] = (counts.get(name, 0), "count")
    fills = calls("superalgebra.product_fill")
    out["superalgebra.product_fill.fills"] = (fills, "count")
    out["superalgebra.product_fill.self_s"] = (spans["superalgebra.product_fill"]["self_s"], "s")
    out["superalgebra.basis_product.hit_ratio"] = (
        _ratio(counts.get("superalgebra.basis_product.calls", 0) - fills,
               counts.get("superalgebra.basis_product.calls", 0)), "ratio")
    out["linalg.add_row.rank_gain_ratio"] = (
        _ratio(counts.get("linalg.add_row.rank_gains", 0), calls("linalg.add_row")), "ratio")
    for name in ("grothendieck.basis_nabla", "grothendieck.basis_delta"):
        out[f"{name}.hit_ratio"] = (_ratio(counts.get(f"{name}.hits", 0), calls(name)), "ratio")
    out["cli.build_tower_s"] = (spans.get("cli.build_tower", {}).get("total_s", 0.0), "s")
    for suite in ALL_SUITES:
        out[f"cli.suite.{suite}_s"] = (spans.get(f"cli.suite.{suite}", {}).get("total_s", 0.0), "s")
    out["trace_overhead_ratio"] = (overhead, "ratio")
    return out


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "supertower" / "cli.py").is_file():
        print(f"no library sources at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    if runner.ref is None:
        print(f"no reference digests for {args.workload} in {REFERENCE}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, suites {','.join(runner.order)}")
    warm = runner.sample("import")
    if not warm["ok"]:
        print("the library does not import", file=sys.stderr)
        return 2
    if args.trace:
        attempted, failed, metrics = run_traced(runner)
    else:
        attempted, failed, metrics = run_timed(runner, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
