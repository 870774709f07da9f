"""Record the certify workload's expected CLI output, one digest per op.

    python3 perfbench/record_digests.py

For every weight seed in the pool and every certify model, stores whether
the op passed its checks and the SHA-256 of its stdout in
``perfbench/digests.json``.  The runner compares every certify op against
this record, so it is made once, at the commit that defined the benchmark,
and not again: later commits must reproduce these bytes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from cover import write_corpus  # noqa: E402
from run import STATE, THETA_POOL, run_worker  # noqa: E402

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    write_corpus(os.path.join(STATE, "corpus"))
    record = {}
    for seed in THETA_POOL:
        res = run_worker("certify", seed, False, seed)
        record[str(seed)] = {op["model"]: {"ok": op["ok"], "digest": op["digest"]}
                             for op in res["ops"]}
        print(seed, [op["model"] for op in res["ops"] if not op["ok"]])
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
