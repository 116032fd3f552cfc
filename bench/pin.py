"""Write bench/pins.json: the output digest of every op the default seed runs.

    python3 bench/pin.py

Every workload cycles through a pool of ops fixed by the seed, so running
each pool once pins every op a run of any length makes.  An op whose
output fails its checks is never pinned.  Re-pin only for a change that is
meant to alter certificate or report output.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main():
    K = run.import_kregular()
    pins = {"seed": run.DEFAULT_SEED}
    for workload in wl.WORKLOADS:
        runner = run.Runner(K, workload, run.DEFAULT_SEED)
        runner.run(rounds=wl.pool_rounds(runner.pool))
        checker = run.Checker(K, runner, {})
        bad = [f"{r['op'].key}: {msg}" for r in runner.records
               for msg in checker.failures(r)]
        if bad:
            sys.exit(f"{workload}: not pinning failed ops: {bad[:5]}")
        pins[workload] = {r["op"].key: r["out"]["digest"]
                          for r in runner.records}
        print(workload, len(pins[workload]), "ops pinned", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
