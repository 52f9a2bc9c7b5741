"""The benchmark's trace targets exist and fire on small descriptors.

``perfbench/tracer.py`` wraps library functions by name and the benchmark
requires some spans to fire on each workload; a renamed or bypassed target
fails here, in a fresh interpreter, instead of only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

SCRIPT = r"""
import contextlib, io, json
from supertower import cli
import run, tracer

trace = tracer.install()
runs = [({"nilcoxeter": {"n_max": 3, "d": 1, "eps": 0}}, "all"),
        ({"wreath": {"base": "clifford", "n_max": 2}}, "axioms,frobenius,psi")]
codes = []
for desc, suites in runs:
    argv = ["verify", json.dumps(desc)] + ([] if suites == "all" else ["--suites", suites])
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
spans = trace.summary()["spans"]
need = sorted({name for workload in ("nc5", "sergeev4", "nc6-groth")
               for name in run.WORKLOADS[workload]["must_fire"]})
print(json.dumps({"codes": codes, "need": need,
                  "silent": [n for n in need if spans.get(n, {}).get("calls", 0) == 0]}))
"""


def test_tracer_installs_and_benchmark_spans_fire():
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench"))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert len(out["need"]) >= 10
    assert out["silent"] == []
