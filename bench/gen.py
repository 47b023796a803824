"""Seeded input generator for the benchmark workloads.

Usage::

    python3 bench/gen.py --workload verify-qr24 --seed 3 --out .bench_work/run

writes ``inputs/*.json`` (the configurations the program receives),
``schedule.json`` (one cycle of operations, in order, and the least number of
cycles a timed phase runs) and ``expected.json`` (what each operation must
produce; the runner reads it, the program never sees it).  The same seed
always gives the same files.

Each workload repeats one cycle of operations, one per slot.  The q-Racah
workloads pick each slot's configuration by seed from ``bench/data/pool.json``
(see ``make_pool.py``), whose outcomes were recorded on a trusted commit.
``verify-spin`` draws random explicit chains here; every check of the
free-fermion route and of the spin oracle must PASS on them (exit 0).
Nothing here imports the package under test.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import POOL, WORKLOADS  # noqa: E402

#: verify-spin slots ``(sites, xx)``: each size as an XY and as an XX chain,
#: and a second 7-site XX chain, so that the median op falls inside one size
#: class rather than between the 7-site XX and XY ops.  The 8-site pair
#: carries most of the time.
VERIFY_SPIN_SLOTS = (
    (6, False), (6, True), (7, False), (7, True), (7, True), (8, False), (8, True),
)
SPIN_CHECKS = ("spectrum-parity", "transition-orthogonality", "spectrum-vs-singular-values",
               "many-body-multiset")

#: Whole cycles a timed phase runs at least, so that every run holds the same
#: mix of sizes and enough operations for its tail percentile
#: (see ``run.tail``).
MIN_CYCLES = {"verify-qr24": 6, "verify-spin": 2, "scan-qr": 4, "export-qr24": 3}
PREFIX = {"verify-qr24": "v", "verify-spin": "s", "scan-qr": "c", "export-qr24": "e"}
EXTENSION = {"verify": "json"}


def qr24_lambda(a, b, c, N, q):
    """Closed-form single-particle spectrum of the qr24 chain (see README)."""
    j = np.arange(N + 1, dtype=float)
    squared = (
        (1 - a * q**j)
        * (c - a * q ** (N - j))
        * (1 - b * c * q ** (j + 1))
        * (1 - b * q ** (N - j + 1))
        / (a * b * q * (1 - a) * (1 - b * c * q))
    )
    return np.sqrt(np.maximum(squared, 0.0))


def spin_slots(rng):
    """Random explicit chains, in the slot format of the pool."""
    slots = []
    for sites, xx in VERIFY_SPIN_SLOTS:
        N = sites - 1
        gamma = [0.0] * N if xx else [float(v) for v in rng.uniform(-0.5, 0.5, N)]
        config = {
            "family": "explicit",
            "N": N,
            "alpha": [float(v) for v in rng.uniform(0.5, 1.5, N)],
            "beta": [float(v) for v in rng.uniform(-1.0, 1.0, sites)],
            "gamma": gamma,
        }
        checks = SPIN_CHECKS + (("xx-reduction",) if xx else ())
        expected = {"family": "explicit", "N": N, "exit": 0,
                    "checks": {check: "PASS" for check in checks}}
        slots.append({"commands": ["verify"],
                      "candidates": [{"config": config, "expected": expected}]})
    return slots


def generate(workload, seed, out_dir):
    """Write the inputs, schedule and expectations of one workload."""
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    if workload == "verify-spin":
        slots = spin_slots(rng)
    else:
        with open(POOL) as handle:
            slots = json.load(handle)[workload]
    configs, expected, schedule = {}, {}, []
    for k, slot in enumerate(slots):
        pick = slot["candidates"][int(rng.integers(len(slot["candidates"])))]
        name = f"{PREFIX[workload]}{k:02d}"
        configs[name] = pick["config"]
        expected[name] = dict(pick["expected"])
        if "manybody" in slot["commands"]:
            point = pick["config"]
            lam = qr24_lambda(point["a"], point["b"], point["c"], point["N"], point["q"])
            expected[name]["lambda"] = [float(v) for v in np.sort(lam)]
        for command in slot["commands"]:
            schedule.append({"command": command, "config": name,
                             "ext": EXTENSION.get(command, "csv")})
    out_dir = Path(out_dir)
    (out_dir / "inputs").mkdir(parents=True, exist_ok=True)
    for name, config in configs.items():
        (out_dir / "inputs" / f"{name}.json").write_text(json.dumps(config, indent=1))
    cycle = {"min_cycles": MIN_CYCLES[workload], "ops": schedule}
    (out_dir / "schedule.json").write_text(json.dumps(cycle, indent=1))
    (out_dir / "expected.json").write_text(json.dumps(expected, indent=1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
