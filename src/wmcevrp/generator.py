"""Random instance generation following the experimental conventions:
rho_t = phi, rho_c = 2 * rho_e, gamma = 2 * rho_t, demands uniform in 1..3,
and a symmetric random distance matrix with the return depot cloning the
departure depot's row."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import INSTANCE_FIELDS, Instance


@dataclass
class GenParams:
    """Generator settings. Every field is a numeric `gen` flag; the ones
    that name an `Instance` field are copied into the instance."""

    dist_low: float = 100.0
    dist_high: float = 1000.0
    P: float = 1500.0
    B: float = 20000.0
    Q: float = 10.0
    rho_t: float = 1.0
    rho_e: float = 1000.0
    rho_c: float | None = None      # defaults to 2 * rho_e
    gamma: float | None = None      # defaults to 2 * rho_t
    phi: float | None = None        # defaults to rho_t
    max_mtev: int | None = None     # defaults to n
    max_mct: int | None = None      # defaults to n

    def resolved(self, n: int) -> "GenParams":
        return replace(
            self,
            rho_c=2 * self.rho_e if self.rho_c is None else self.rho_c,
            gamma=2 * self.rho_t if self.gamma is None else self.gamma,
            phi=self.rho_t if self.phi is None else self.phi,
            max_mtev=n if self.max_mtev is None else self.max_mtev,
            max_mct=n if self.max_mct is None else self.max_mct,
        )


def generate_instance(n: int, seed: int, **overrides) -> Instance:
    """Deterministic instance from (n, seed) using a PCG64 stream, with the
    given `GenParams` fields overridden."""
    if n < 1:
        raise ValueError("need at least one customer")
    p = GenParams(**overrides).resolved(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    size = n + 1                      # depot 0 plus customers; node n+1 cloned after
    core = np.zeros((size, size))
    upper = np.triu_indices(size, k=1)
    core[upper] = rng.uniform(p.dist_low, p.dist_high, size=len(upper[0]))
    core = core + core.T
    dist = np.zeros((n + 2, n + 2))
    dist[:size, :size] = core
    dist[n + 1, :size] = core[0]
    dist[:size, n + 1] = core[0]
    demand = rng.integers(1, 3 + 1, size=n)
    return Instance(n=n, dist=dist, demand=[int(d) for d in demand],
                    **{k: v for k, v in vars(p).items() if k in INSTANCE_FIELDS})
