"""One measured sample, run in a fresh interpreter started by ``run.py``.

Usage: ``python3 child.py '<json job>'``.  The job names the checkout's
``src`` directory, the descriptor and suite order, the report and result
paths, and a mode:

- ``verify``: ``cli.main(["verify", ..., "--format", "json", "--jobs", "1"])``
  writing the report to a file;
- ``setup``: ``cli.build_tower`` alone, the work done before any check runs;
- ``import``: import the library only, which compiles its bytecode.

The result file gets ``time.monotonic()`` stamps taken when
``cli.build_tower`` returns and when the report has been written.  The
monotonic clock is shared by all processes, so ``run.py`` subtracts its own
stamp taken just before starting this interpreter.  With ``"trace": true``
the tracer's wrappers are installed first and its summary is written too.
"""

import json
import os
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    from supertower import cli

    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the library under {src}")
    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.install()

    stamps = {}
    build_tower = cli.build_tower

    def timed_build_tower(cfg):
        tower = build_tower(cfg)
        stamps["setup_end"] = time.monotonic()
        return tower

    cli.build_tower = timed_build_tower
    code = 0
    if job["mode"] == "setup":
        cli.build_tower(cli.RunConfig(descriptor=job["descriptor"], suites=job["suites"]))
    elif job["mode"] == "verify":
        code = cli.main(["verify", json.dumps(job["descriptor"]), "--format", "json",
                         "--jobs", "1", "--suites", ",".join(job["suites"]),
                         "--out", job["report"]])
    stamps["end"] = time.monotonic()
    result = {"exit": code, **stamps}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
