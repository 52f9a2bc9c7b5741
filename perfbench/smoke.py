"""Smoke test of the benchmark harness on tiny descriptors.

Usage: ``python3 perfbench/smoke.py`` from anywhere; exits 0 when every
check holds.  It takes a few seconds and checks that:

- ``run.py`` runs end to end on nilCoxeter n_max 3 and Sergeev n_max 2, with
  and without the trace, and its last line carries exactly the metric names
  and units that ``BENCHMARK.json`` lists, with every report correct;
- a corrupted report, a wrong exit code or a missing report counts all
  expected records as failed, while a reordered but equal report passes
  when the suite order was permuted;
- ``run.py`` exits non-zero without a result when the checkout holds only
  ``BENCHMARK.json`` and the benchmark's own files;
- the tracer refuses a target the library does not define.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"ok  {what}")


def run_harness(workload: str, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


def check_harness() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for workload in ("smoke-nc3", "smoke-sergeev2"):
            proc = run_harness(workload, trace)
            check(proc.returncode == 0, f"{workload} --trace {trace} exits 0")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload} --trace {trace} prints the result object last")
            check(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
                  f"{workload} --trace {trace} reports are correct")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            check(got == want, f"{workload} --trace {trace} prints every {key} metric with its unit")


def check_failures() -> None:
    run.WORK.mkdir(parents=True, exist_ok=True)
    ref = run.load_reference()["smoke-nc3"]
    text = run.Runner("smoke-nc3", 0).sample("verify")["report"]
    expected = ref["records"]
    check(run.report_failures(ref, True, 0, text) == 0, "the default-order report matches its digest")

    data = json.loads(text)
    data["records"][0]["lhs"] += "1"
    wrong = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    check(run.report_failures(ref, True, 0, wrong) == expected, "a changed record fails in default order")
    check(run.report_failures(ref, False, 0, wrong) == expected, "a changed record fails in permuted order")

    data = json.loads(text)
    data["records"][0]["pass"] = False
    data["summary"] = {"fail": 1, "pass": expected - 1, "total": expected}
    failing = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    check(run.report_failures(ref, False, 1, failing) == expected, "a failing check fails the report")

    data = json.loads(text)
    data["records"].reverse()
    reordered = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    check(run.report_failures(ref, False, 0, reordered) == 0, "reordered records pass in permuted order")
    check(run.report_failures(ref, True, 0, reordered) == expected, "reordered records fail in default order")
    check(run.report_failures(ref, True, 1, text) == expected, "a non-zero exit code fails the report")
    check(run.report_failures(ref, True, 0, None) == expected, "a missing report fails")
    check(run.report_failures(ref, True, 0, text[:-20]) == expected, "a truncated report fails")


def check_bare_checkout() -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in BENCH["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_harness("nc5", 0, cwd=bare)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "a checkout without the library exits non-zero with no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_tracer_refuses_missing_target() -> None:
    sys.path.insert(0, str(run.SRC))
    import tracer

    tracer.SPANS.append(("linalg", "no_such_function", "linalg.no_such_function"))
    try:
        tracer.install()
    except AttributeError:
        check(True, "the tracer refuses a missing target")
    else:
        check(False, "the tracer refuses a missing target")


def main() -> int:
    check_harness()
    check_failures()
    check_bare_checkout()
    check_tracer_refuses_missing_target()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
