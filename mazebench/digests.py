"""Record the pass-0 output digests of the workloads for seeds 0-31.

    python3 mazebench/digests.py

The digest is the SHA-256 of the canonical JSON of every output of a
run's first pass, in order, for seeds 0 to SEEDS - 1.  A workload whose
checks already pin every output (verify-all) has no digest.  ``run.py``
compares a full-size run's digest with the one recorded here for its
seed, so a change to any result the benchmark computes marks the run
incorrect; this file needs regenerating only when the benchmark's own
inputs change.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "digests.json")
SEEDS = 32


def load():
    with open(PATH) as fh:
        return json.load(fh)


def pass0_digest(workload, seed):
    from workloads import WORKLOADS, fresh_import

    wl = WORKLOADS[workload](seed)
    ml = fresh_import()
    wl.plan(ml, wl.setup(ml))
    ops = wl.pass_ops(wl.modules_for_pass(0), 0)
    if all(op.digest is None for op in ops):
        return None
    digest = hashlib.sha256()
    for op in ops:
        result = op.fn(*op.args)
        if not op.check(result):
            raise SystemExit(f"{workload} seed {seed}: an output failed "
                             "its check; nothing recorded")
        if op.digest is not None:
            digest.update(op.digest(result).encode())
    return digest.hexdigest()


def main():
    import run
    from workloads import WORKLOADS

    run._require_package()
    table = {w: {str(s): pass0_digest(w, s) for s in range(SEEDS)}
             for w in WORKLOADS}
    table = {w: t for w, t in table.items() if None not in t.values()}
    with open(PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
