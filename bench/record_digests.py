"""Record the digests of every seed-independent instance into digests.json.

    python3 bench/record_digests.py

Run from the root of a source checkout whose outputs are known to be right;
the benchmark then counts any later drift from these digests as a failure.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.import_library()
    import workloads

    digests = {}
    for name, build in workloads.WORKLOADS.items():
        for inst in build(0):
            if inst.fixed:
                for op in inst.check(inst.call()):
                    digests[op.op_id] = op.digest
    (run.BENCH_DIR / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
