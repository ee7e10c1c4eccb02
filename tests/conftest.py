import numpy as np
import pytest

from wmcevrp.model import Instance


def pytest_addoption(parser):
    parser.addoption(
        "--paper-data", default=None,
        help="directory holding the published benchmark instance files; "
             "enables the reference-cost acceptance checks",
    )


def bits(s: str) -> int:
    """Charge mask of a bitstring written edge one first: bits("10010") is
    0b01001, which charges edges 1 and 4."""
    return sum(1 << e for e, ch in enumerate(s) if ch == "1")


def build_instance(core, demand, **params):
    """Instance from a (n+1)x(n+1) distance matrix over depot 0 and customers.

    The return-depot row is cloned from the depot row, matching the on-disk
    convention. Entries above the diagonal win when the input is asymmetric.
    """
    core = np.asarray(core, dtype=float)
    core = np.triu(core, k=1)
    core = core + core.T
    n = core.shape[0] - 1
    dist = np.zeros((n + 2, n + 2))
    dist[: n + 1, : n + 1] = core
    dist[n + 1, : n + 1] = core[0]
    dist[: n + 1, n + 1] = core[0]
    defaults = dict(
        P=1e5, B=1e6, Q=100.0, rho_t=1.0, rho_e=100.0, rho_c=200.0,
        gamma=2.0, phi=1.0, max_mtev=n, max_mct=n,
    )
    defaults.update(params)
    return Instance(n=n, dist=dist, demand=list(demand), **defaults)


@pytest.fixture
def one_customer():
    # c(0,1) = c(1, n+1) = 5
    return build_instance([[0, 5], [0, 0]], [1], rho_e=100.0)
