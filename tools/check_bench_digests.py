"""Check every fixed benchmark instance against bench/digests.json.

    python tools/check_bench_digests.py

Recomputes the seed-0 digest of each seed-independent instance the way
bench/record_digests.py records it, and compares them with the committed
bench/digests.json, which it only reads. Prints each op whose digest
differs, is missing or is no longer produced, and exits 1 if there is any;
otherwise prints how many digests matched and exits 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (bench/run.py, found through the path above)


def main() -> int:
    run.import_library()
    import workloads

    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    computed = {}
    for build in workloads.WORKLOADS.values():
        for inst in build(0):
            if inst.fixed:
                for op in inst.check(inst.call()):
                    computed[op.op_id] = op.digest
    drift = sorted(op_id for op_id in recorded.keys() | computed.keys()
                   if recorded.get(op_id) != computed.get(op_id))
    for op_id in drift:
        print(f"{op_id}: recorded {recorded.get(op_id)}, computed {computed.get(op_id)}")
    if drift:
        print(f"{len(drift)} of {len(recorded.keys() | computed.keys())} digests differ")
        return 1
    print(f"all {len(recorded)} digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
