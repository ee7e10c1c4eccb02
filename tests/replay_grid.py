"""Fingerprint short LNS runs over a grid of generated instances.

Prints one line per configuration: its settings and the SHA-256 of
``repr(result.log)`` followed by the best solution's JSON, or
``infeasible`` when the instance is rejected with
`InfeasibleInstanceError`. Two checkouts whose outputs are identical make
the same moves and keep the same best solutions on every configuration, so
a change meant to leave the search as it is can be checked with

    PYTHONPATH=src python tests/replay_grid.py > after.txt

against the same command on the parent, and `cmp`. The grid is
n in {3, 6, 10, 20, 50} x P in {300, 700, 900, 1500, 3000, 15000} x
{default, Q = 100, gamma = 0.5}; each instance is
``generate_instance(n, 7n + P, ...)``, solved for 60 iterations from
``run_seed(0, 0)``. Not collected by pytest (its name does not start with
``test_``).
"""

from __future__ import annotations

import hashlib
import warnings

from wmcevrp import lns
from wmcevrp.config import SolverConfig
from wmcevrp.generator import generate_instance
from wmcevrp.harness import run_seed
from wmcevrp.model import InfeasibleInstanceError

SIZES = (3, 6, 10, 20, 50)
BATTERIES = (300, 700, 900, 1500, 3000, 15000)
VARIANTS = (("default", {}), ("Q=100", {"Q": 100.0}), ("gamma=0.5", {"gamma": 0.5}))
ITERATIONS = 60


def fingerprint(n: int, P: int, overrides: dict) -> str:
    inst = generate_instance(n, 7 * n + P, P=float(P), **overrides)
    try:
        result = lns.run(inst, SolverConfig(iterations=ITERATIONS), rng=run_seed(0, 0))
    except InfeasibleInstanceError:
        return "infeasible"
    best = result.best.to_json_str() if result.best is not None else "null"
    return hashlib.sha256((repr(result.log) + best).encode()).hexdigest()


def main() -> None:
    # gamma = 0.5 is below rho_t, which the instance warns about on stderr
    warnings.filterwarnings("ignore", "gamma <= rho_t")
    for n in SIZES:
        for P in BATTERIES:
            for name, overrides in VARIANTS:
                print(f"n={n} P={P} {name} {fingerprint(n, P, overrides)}", flush=True)


if __name__ == "__main__":
    main()
