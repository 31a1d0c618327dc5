"""Record the output digests run.py checks, one repetition per workload and seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json for seeds 0 .. SEEDS-1. Run it only on a
commit whose outputs are known to be right, and only when a workload's
inputs or sizes change: the digests pin the program's outputs, so a later
change that alters them is reported as failed operations. Exits non-zero, writing nothing, if any
repetition fails its checks.
"""

import json
import sys
import time

from run import HERE, WORKERS, run_rep, thread_budget

SEEDS = 32


def main() -> int:
    digests, bad = {}, []
    for workload in WORKERS:
        budget = thread_budget(workload)
        digests[workload] = {}
        for seed in range(SEEDS):
            r = run_rep(workload, seed, False, budget, deadline=time.monotonic() + 600)
            if "crashed" in r or r["failed"] or "digest" not in r:
                bad.append(f"{workload} seed {seed}: {r.get('crashed') or r.get('errors')}")
                continue
            digests[workload][str(seed)] = r["digest"]
            extra = f" held-out accuracy {r['held_out_accuracy']}" if "held_out_accuracy" in r else ""
            print(f"{workload} seed {seed}: {r['digest']}{extra}", flush=True)
    if bad:
        print("not written; failed repetitions:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
