"""Write a workload's seeded inputs and time the set-up.

    python3 bench/gen.py --workload NAME --seed N --out DIR

Run from the repository root.  Imports lefbench from ./src, writes the
workload's generated configs under DIR, loads every config the workload
names through ``load_config`` (an invalid one stops with an error), and
prints one JSON line with the seconds from the start of this script to the
end of that self-test, raw and corrected for the core's speed (speed.py).
"""

from speed import SpeedProbe
from time import perf_counter

START = perf_counter()

import argparse   # noqa: E402
import json       # noqa: E402
import sys        # noqa: E402
from pathlib import Path   # noqa: E402

# set-up lasts about 0.15 s: sample the speed more often than in a run
PERIOD_S = 0.01


def main() -> None:
    with SpeedProbe(PERIOD_S) as probe:
        p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        args = p.parse_args()

        sys.path.insert(0, "src")
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import lefbench.cli  # noqa: F401  (the set-up a request relies on)
        import workloads
        workloads.build(args.workload, args.seed, Path(args.out))
        end = perf_counter()
    print(json.dumps({"setup_s": probe.corrected(START, end),
                      "raw_s": end - START}))


if __name__ == "__main__":
    main()
