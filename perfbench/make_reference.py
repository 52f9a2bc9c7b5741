"""Record the reference digests that ``run.py`` checks every report against.

Usage: ``python3 perfbench/make_reference.py [workload ...]`` (default: all).

Runs each workload once in its default suite order with the library of this
checkout and writes, per workload, the record count, the SHA-256 of the
report bytes and the order-free digest of its records to
``perfbench/reference.json``.  Run it only on a commit whose reports are
known to be right: every later report must equal these.
"""

import hashlib
import json
import sys

import run


def main(names: list[str]) -> int:
    ref = run.load_reference()
    run.WORK.mkdir(parents=True, exist_ok=True)
    for name in names or list(run.WORKLOADS):
        s = run.Runner(name, 0).sample("verify")
        if not s["ok"] or s["exit"] != 0 or s["report"] is None:
            print(f"{name}: verify did not pass", file=sys.stderr)
            return 1
        data = json.loads(s["report"])
        if data["summary"]["fail"] != 0:
            print(f"{name}: {data['summary']['fail']} checks failed", file=sys.stderr)
            return 1
        ref[name] = {
            "records": len(data["records"]),
            "bytes_sha256": hashlib.sha256(s["report"].encode()).hexdigest(),
            "records_sha256": run.records_digest(data["records"]),
        }
        print(f"{name}: {ref[name]['records']} records, {s['end']:.2f} s")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
