"""Pin the sha256 of every problem's output text, per workload and seed.

    python3 bench/pin_digests.py SEED...

Run on the commit whose outputs are the reference, after every check has
passed.  A change to the program must leave every pinned digest matching;
it never re-pins.
"""

from __future__ import annotations

import json
import sys

import worker  # puts the package on sys.path
from worker import hostspeed, problems


def main(seeds):
    pinned = json.loads(worker.DIGESTS.read_text()) if worker.DIGESTS.exists() else {}
    for workload in problems.WORKLOADS:
        for seed in seeds:
            result = worker.run_pass(problems.generate(workload, seed), hostspeed.Clock())
            if result["failed"]:
                sys.exit(f"{workload} seed {seed}: a check failed; nothing pinned")
            pinned.setdefault(workload, {})[str(seed)] = result["digests"]
    worker.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
