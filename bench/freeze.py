"""Recompute the frozen references in references.json from the program
under ``src/``.

    python3 bench/freeze.py --seeds 32

Outputs that do not depend on the seed are stored once per workload;
seeded outputs are stored for seeds 0..N-1.  Run it only on a commit
whose outputs are known to be right: from then on the benchmark counts
every output that differs as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, SRC, _no_item, entry_points, load_program
from workloads import WORKLOADS


def outputs(workload, api) -> dict:
    workload.prepare(api)
    res = workload.run_pass(api, _no_item)
    if res.failed:
        raise RuntimeError(f"{workload.name} seed {workload.seed}: {res.failed} failed checks")
    return {**res.verdicts, **{k: v for k, (v, _) in res.digests.items()}}


def freeze(seeds: int) -> dict:
    api = entry_points(load_program())
    refs = {}
    for name, cls in WORKLOADS.items():
        fixed = outputs(cls(0), api)
        entry = {k: v for k, v in fixed.items() if k not in cls.SEEDED}
        if cls.SEEDED:
            entry["seeds"] = {
                str(seed): {k: v for k, v in outputs(cls(seed), api).items() if k in cls.SEEDED}
                for seed in range(seeds)
            }
        refs[name] = entry
        print(f"{name}: frozen", file=sys.stderr)
    return refs


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=32, help="freeze seeded outputs for seeds 0..N-1")
    args = p.parse_args()
    sys.path.insert(0, str(SRC))
    refs = freeze(args.seeds)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
