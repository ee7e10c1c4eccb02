"""Adaptive large neighborhood search over MTEV routes.

Each iteration destroys part of the incumbent with one of six removal
operators, rebuilds it with one of six insertion operators, enumerates
charging patterns per rebuilt route, coordinates charging trucks, and then
decides acceptance. Operator weights adapt by segment through a
roulette-wheel selection; the incumbent follows simulated annealing while
the best solution only ever improves.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate, islice

import numpy as np

from . import bdp, coordination
from .config import SolverConfig
from .model import (
    ChargingDuty,
    FeasibilityReport,
    InfeasibleInstanceError,
    Instance,
    Route,
    Solution,
    check_feasibility,
    route_duties,
    routing_cost,
)

# distinct coordination outcomes a run remembers; repeats are nearly
# always among the last few candidates
COORDINATION_MEMO_SIZE = 16

# distinct routes whose records a run keeps
ROUTE_RECORDS = 200_000

# the one pattern of every route that fits the battery: charge nothing;
# shared by all of them, so nothing may mutate it
CHARGE_FREE = bdp.BdpResult(bdp.RouteClass.TRIVIAL_NO_CHARGE, [0])


@dataclass
class OperatorStats:
    """Weights, per-segment scores and usage counts for one operator family."""

    names: tuple[str, ...]
    weights: np.ndarray = None
    scores: np.ndarray = field(init=False)
    uses: np.ndarray = field(init=False)
    _cdf: list[float] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        k = len(self.names)
        if self.weights is None:
            self.weights = np.ones(k)
        self.scores = np.zeros(k)
        self.uses = np.zeros(k, dtype=int)
        self._rebuild_cdf()

    def probabilities(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    def _rebuild_cdf(self) -> None:
        """The cumulative probabilities exactly as `Generator.choice` builds
        them, so `select` draws what `rng.choice(k, p=probabilities())` would.
        ValueError unless the weights are non-negative with a finite positive
        sum, so that every probability is finite and non-negative."""
        total = self.weights.sum()
        if not (np.isfinite(total) and total > 0 and (self.weights >= 0).all()):
            raise ValueError(f"operator weights {self.weights} give no probabilities")
        cdf = self.probabilities().cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def select(self, rng: np.random.Generator) -> int:
        """Roulette-wheel pick from one uniform draw."""
        return bisect_right(self._cdf, rng.random())

    def record(self, idx: int, score: float) -> None:
        self.scores[idx] += score
        self.uses[idx] += 1

    def end_segment(self, reaction: float, floor: float) -> None:
        """Close a segment: blend weights toward each operator's mean score."""
        for i in range(len(self.names)):
            if self.uses[i] > 0:
                mean = self.scores[i] / self.uses[i]
                self.weights[i] = max(floor, (1 - reaction) * self.weights[i] + reaction * mean)
        self.scores[:] = 0.0
        self.uses[:] = 0
        self._rebuild_cdf()


@dataclass
class RunResult:
    best: Solution | None
    best_cost: float
    feasible: bool
    iterations: int
    runtime: float
    initial_cost: float
    log: list[tuple] = field(default_factory=list)
    destroy_stats: OperatorStats | None = None
    repair_stats: OperatorStats | None = None
    coordination: "coordination.CoordinationResult | None" = None
    report: FeasibilityReport | None = None     # the checker's verdict on `best`

    @property
    def mtev_used(self) -> int:
        return sum(self.best.used_mtev) if self.best else 0

    @property
    def mct_used(self) -> int:
        return sum(self.best.used_mct) if self.best else 0


@dataclass(slots=True)
class _RouteRecord:
    """What a run computes once about one distinct route."""

    times: list[float]           # arrival times; the last is `Instance.route_distance`
    result: bdp.BdpResult
    charged: int                 # `result.charged()`: 0 when the route never charges
    arcs: dict[int, list[ChargingDuty]]   # route index -> duties of the charged edges


class _Context:
    """Per-run caches shared by operators: distance rows, route records,
    coordination memo and the Shaw order.

    `d` holds `inst.dist` as nested lists of floats: operators index it in
    their inner loops, where a plain-float lookup costs far less than a
    numpy scalar and gives the same IEEE arithmetic.

    `patterns` keeps one `_RouteRecord` per distinct node list, for the
    first `ROUTE_RECORDS` of them: its arrival times, summed edge by edge
    from `d` as `Instance.route_distance` sums them, its patterns, the mask
    of the edges some pattern charges, and per route index the duties of
    those edges, built when first needed. `_coordinate_routes` asks for
    records only of routes that may charge: one that `bdp.fits` the battery
    gets none.

    `coordinated` maps the last `COORDINATION_MEMO_SIZE` distinct keys of
    `_coordinate_routes` to their plan, or None when the key's routes are
    uncoordinatable, least recently used first. A key lists the routes that
    may charge, each with its index. Within one run the plan depends on the
    key alone: `inst` and `cfg` are fixed, patterns are deterministic,
    coordination draws no random numbers, and a route that never charges
    adds no duty, no search level and no factor to the exact gate. The
    index is part of the key because duty tie-breaks use it. Plans are
    shared, so nothing may mutate one.

    `shaw_related` is `_relatedness`, computed when Shaw removal first runs.
    `shaw_order` maps each customer u that has been a Shaw anchor to every
    customer ranked by relatedness to u, ties by index as a stable sort
    leaves them; a row is sorted only when its customer is first an anchor.
    """

    def __init__(self, inst: Instance, cfg: SolverConfig):
        self.inst = inst
        self.cfg = cfg
        self.d = inst.dist.tolist()
        self._records: dict[tuple[int, ...], _RouteRecord] = {}
        self.coordinated: OrderedDict[tuple[tuple[int, tuple[int, ...]], ...],
                                      coordination.CoordinationPlan | None] = OrderedDict()
        self.shaw_related: np.ndarray | None = None
        self.shaw_order: dict[int, list[int]] = {}

    def patterns(self, nodes: list[int]) -> _RouteRecord:
        """The record of the route over `nodes`, enumerating its patterns
        when the run meets the route for the first time."""
        key = tuple(nodes)
        rec = self._records.get(key)
        if rec is None:
            lengths = _route_lengths(key, self.d)
            result = bdp.enumerate_patterns(Route(0, list(nodes)), self.inst,
                                            max_edges=self.cfg.bdp_max_edges, lengths=lengths)
            rec = _RouteRecord(list(accumulate(lengths, initial=0.0)), result,
                               result.charged(), {})
            if len(self._records) < ROUTE_RECORDS:
                self._records[key] = rec
        return rec


def _relatedness(inst: Instance, cfg: SolverConfig) -> np.ndarray:
    """Shaw relatedness of customers u and v at [u - 1, v - 1]."""
    n = inst.n
    sub = inst.dist[1:n + 1, 1:n + 1]
    span = sub.max() - sub.min()
    dist_hat = (sub - sub.min()) / span if span > 0 else np.zeros_like(sub)
    dem = np.array(inst.demand, dtype=float)
    dd = np.abs(dem[:, None] - dem[None, :])
    dspan = dd.max() - dd.min()
    dem_hat = (dd - dd.min()) / dspan if dspan > 0 else np.zeros_like(dd)
    return cfg.shaw_distance_weight * dist_hat + cfg.shaw_demand_weight * dem_hat


def _route_load(nodes: list[int], inst: Instance) -> int:
    demand = inst.demand
    return sum(demand[u - 1] for u in nodes[1:-1])


def _route_lengths(nodes, d):
    """Edge lengths of the route over `nodes`, from plain distance rows."""
    return [d[i][j] for i, j in zip(nodes, nodes[1:])]


def _route_distance(nodes, d) -> float:
    """`Instance.route_distance` from plain distance rows: the same sum, edge
    by edge from the depot, so the same float."""
    total = 0.0
    for i, j in zip(nodes, nodes[1:]):
        total += d[i][j]
    return total


def _detour(nodes: list[int], pos: int, d: list[list[float]]) -> float:
    """Distance saved by removing the interior node at position pos (1-based)."""
    prev, u, nxt = nodes[pos - 1], nodes[pos], nodes[pos + 1]
    return d[prev][u] + d[u][nxt] - d[prev][nxt]


def _drop_empty(routes: list[list[int]]) -> list[list[int]]:
    return [r for r in routes if len(r) > 2]


# ---------------------------------------------------------------------------
# removal operators: take raw node lists, return (routes, removed customers)
# ---------------------------------------------------------------------------

def _remove_customers(routes: list[list[int]], victims: list[int]) -> list[list[int]]:
    victim_set = set(victims)
    return [[u for k, u in enumerate(nodes)
             if k == 0 or k == len(nodes) - 1 or u not in victim_set]
            for nodes in routes]


def _random_removal(routes, ctx, rng, k):
    served = sorted(u for nodes in routes for u in nodes[1:-1])
    k = min(k, len(served))
    victims = [served[i] for i in rng.choice(len(served), size=k, replace=False).tolist()]
    return _remove_customers(routes, victims), victims


def _route_best(nodes, metric):
    """((-score, node), pos) of the highest-scoring interior node; None when empty."""
    best = None
    for pos in range(1, len(nodes) - 1):
        key = (-metric(nodes, pos), nodes[pos])
        if best is None or key < best[0]:
            best = (key, pos)
    return best


def _greedy_metric_removal(routes, k, metric, over_battery=None):
    """Remove k customers one at a time, always the current max of `metric`.

    metric(nodes, pos) scores the interior node at pos of one route. With
    `over_battery`, only the nonempty routes it flags compete while there
    are any. A removal changes one route, so only that route is scored again.
    """
    def flag(nodes):
        return over_battery is not None and len(nodes) > 2 and over_battery(nodes)

    routes = [list(r) for r in routes]
    best = [_route_best(nodes, metric) for nodes in routes]
    flagged = [flag(nodes) for nodes in routes]
    removed = []
    for _ in range(k):
        pool = [r_idx for r_idx, over in enumerate(flagged) if over] or range(len(routes))
        choice = None
        for r_idx in pool:
            if best[r_idx] is not None and (choice is None or best[r_idx][0] < best[choice][0]):
                choice = r_idx
        if choice is None:
            break
        nodes = routes[choice]
        removed.append(nodes.pop(best[choice][1]))
        best[choice] = _route_best(nodes, metric)
        flagged[choice] = flag(nodes)
    return routes, removed


def _distance_removal(routes, ctx, rng, k):
    d = ctx.d
    return _greedy_metric_removal(routes, k, lambda nodes, pos: _detour(nodes, pos, d))


def _worst_removal(routes, ctx, rng, k):
    inst, d = ctx.inst, ctx.d

    def metric(nodes, pos):
        saving = inst.rho_t * _detour(nodes, pos, d)
        if len(nodes) == 3:   # removal would empty the route
            saving += inst.rho_e
        return saving

    return _greedy_metric_removal(routes, k, metric)


def _charge_removal(routes, ctx, rng, k):
    """Target routes whose energy need exceeds the battery; drop the customer
    whose removal saves the most energy."""
    inst, d = ctx.inst, ctx.d
    return _greedy_metric_removal(
        routes, k, lambda nodes, pos: inst.rho_t * _detour(nodes, pos, d),
        over_battery=lambda nodes: inst.rho_t * _route_distance(nodes, d) > inst.P)


def _string_removal(routes, ctx, rng, k):
    """Remove contiguous segments of random routes until k customers are gone."""
    cfg = ctx.cfg
    routes = [list(r) for r in routes]
    removed = []
    while len(removed) < k:
        nonempty = [i for i, nodes in enumerate(routes) if len(nodes) > 2]
        if not nonempty:
            break
        r_idx = nonempty[int(rng.integers(len(nonempty)))]
        nodes = routes[r_idx]
        count = len(nodes) - 2
        lo = min(cfg.string_min, count)
        hi = min(cfg.string_max, count)
        length = int(rng.integers(lo, hi + 1))
        length = min(length, k - len(removed))
        start = int(rng.integers(1, count - length + 2))
        removed.extend(nodes[start:start + length])
        del nodes[start:start + length]
    return routes, removed


def _shaw_removal(routes, ctx, rng, k):
    """Grow a removal set of customers similar in location and demand: each
    pick is the served customer left that is most related to a random
    removed one, the anchor: the first customer still left in the anchor's
    `_Context.shaw_order` row."""
    served = sorted(u for nodes in routes for u in nodes[1:-1])
    if not served:
        return [list(r) for r in routes], []
    if ctx.shaw_related is None:
        ctx.shaw_related = _relatedness(ctx.inst, ctx.cfg)
    order = ctx.shaw_order
    k = min(k, len(served))
    seed = served[int(rng.integers(len(served)))]
    removed = [seed]
    left = set(served)
    left.remove(seed)
    while len(removed) < k:
        anchor = removed[int(rng.integers(len(removed)))]
        row = order.get(anchor)
        if row is None:
            row = order[anchor] = (np.argsort(ctx.shaw_related[anchor - 1], kind="stable")
                                   + 1).tolist()
        pick = next(u for u in row if u in left)
        removed.append(pick)
        left.remove(pick)
    return _remove_customers(routes, removed), removed


_DESTROY_FUNCS = {
    "random_removal": _random_removal,
    "distance_removal": _distance_removal,
    "string_removal": _string_removal,
    "worst_removal": _worst_removal,
    "shaw_removal": _shaw_removal,
    "charge_removal": _charge_removal,
}

DESTROY_OPS = tuple(_DESTROY_FUNCS)


def destroy(op_id: str, sol: Solution, inst: Instance, rng: np.random.Generator,
            k: int, config: SolverConfig | None = None):
    """Apply a named removal operator; returns (partial solution, removed)."""
    if op_id not in _DESTROY_FUNCS:
        raise ValueError(f"unknown destroy operator: {op_id}")
    ctx = _Context(inst, config or SolverConfig())
    routes = [list(r.nodes) for r in sol.mtev_routes]
    routes, removed = _DESTROY_FUNCS[op_id](routes, ctx, rng, k)
    routes = _drop_empty(routes)
    partial = Solution.from_routes([Route(i, nodes) for i, nodes in enumerate(routes)])
    return partial, removed


# ---------------------------------------------------------------------------
# insertion operators
# ---------------------------------------------------------------------------

class _Fleet:
    """The routes an insertion operator rebuilds, with their loads and edge
    tables. The one place an insertion is priced and applied.

    An unused vehicle is an empty route: while fewer than `inst.max_mtev`
    routes are in the fleet, the last one, at index `opening`, is [0, n+1],
    and an insertion into it opens the next one. Inserting u there costs
    what serving u alone does, `rho_t * (d[0][u] + d[u][n+1]) + rho_e`: the
    edge it replaces has length 0, as `Instance` forces, and only this route
    adds the vehicle's `rho_e`. Its index, after every other route's, ranks
    its option after each option of equal cost.

    An edge table holds one (d[prev] row, nxt, d[prev][nxt], route_idx, pos)
    entry per edge of a route, all that pricing an insertion on the edge
    reads, pos being the position the inserted customer would take. It is
    built when the route is first priced and dropped when an insertion
    changes it. Tables of several routes may be joined into one.
    """

    __slots__ = ("inst", "d", "end", "routes", "loads", "edges", "opening")

    def __init__(self, routes, ctx):
        self.inst, self.d, self.end = ctx.inst, ctx.d, ctx.inst.depot_end
        self.routes = [list(r) for r in routes]
        self.loads = [_route_load(nodes, self.inst) for nodes in self.routes]
        self.edges = {}
        self._open()

    def _open(self):
        if len(self.routes) < self.inst.max_mtev:
            self.opening = len(self.routes)
            self.routes.append([0, self.end])
            self.loads.append(0)
        else:
            self.opening = None

    def served(self):
        """The routes without the empty one."""
        return self.routes[:self.opening]

    def table(self, r_idx):
        """The edge table of route r_idx; None for the empty route, which
        `price` prices by itself."""
        if r_idx == self.opening:
            return None
        table = self.edges.get(r_idx)
        if table is None:
            nodes, d = self.routes[r_idx], self.d
            table = self.edges[r_idx] = [(d[prev], nxt, d[prev][nxt], r_idx, pos)
                                         for pos, (prev, nxt) in enumerate(zip(nodes, nodes[1:]),
                                                                           start=1)]
        return table

    def price(self, u, tables, depth=0):
        """(delta_cost, route_idx, pos) of inserting u on each edge of each
        of `tables`, None standing for the empty route: all in one list at
        depth 0, else per table its `depth` cheapest, sorted."""
        inst, d = self.inst, self.d
        du, rho_t = d[u], inst.rho_t
        priced = []
        for table in tables:
            if table is None:
                option = (rho_t * (d[0][u] + du[self.end]) + inst.rho_e, self.opening, 1)
                priced.append([option] if depth else option)
                continue
            options = [(rho_t * (dprev[u] + du[nxt] - dprev_nxt), r_idx, pos)
                       for dprev, nxt, dprev_nxt, r_idx, pos in table]
            if not depth:
                priced += options
            elif depth == 1:
                priced.append([min(options)])
            else:
                options.sort()
                priced.append(options[:depth])
        return priced

    def options(self, u):
        """All capacity-feasible positions for u, as (delta_cost, route_idx, pos)."""
        du, Q, edges, table = self.inst.demand[u - 1], self.inst.Q, self.edges, self.table
        return self.price(u, [edges.get(r_idx) or table(r_idx)
                              for r_idx, load in enumerate(self.loads) if load + du <= Q])

    def insert(self, u, r_idx, pos):
        self.routes[r_idx].insert(pos, u)
        self.loads[r_idx] += self.inst.demand[u - 1]
        self.edges.pop(r_idx, None)
        if r_idx == self.opening:
            self._open()


def _insert_each_best(routes, order, ctx):
    fleet = _Fleet(routes, ctx)
    for u in order:
        options = fleet.options(u)
        if not options:
            return None
        _, r_idx, pos = min(options)
        fleet.insert(u, r_idx, pos)
    return fleet.served()


def _random_insertion(routes, removed, ctx, rng):
    order = [removed[i] for i in rng.permutation(len(removed)).tolist()]
    return _insert_each_best(routes, order, ctx)


def _sequential_insertion(routes, removed, ctx, rng):
    return _insert_each_best(routes, list(removed), ctx)


def _greedy_insertion(routes, removed, ctx, rng):
    """Globally cheapest insertion first."""
    return _regret_insertion(routes, removed, ctx, rng, 1)


def _rerank(ranked, changed, depth):
    """The `depth` cheapest of a customer's options: the lists of the routes
    in `changed` and the first `depth` entries of its sorted first pricing
    `ranked` on the other routes."""
    head = [option for options in changed.values() for option in options]
    left = depth
    for option in ranked:
        if option[1] not in changed:
            head.append(option)
            left -= 1
            if not left:
                break
    head.sort()
    return head[:depth]


def _merge_head(head, new, depth):
    """`head` with the options of a route it holds none of merged in."""
    return sorted(head + new)[:depth]


def _regret_insertion(routes, removed, ctx, rng, depth):
    """Insert the customer with the largest regret over its best k positions.

    Customers with fewer than `depth` feasible positions get infinite regret
    and therefore go first. At depth 1 every regret is 0, so the cheapest
    insertion goes first: greedy insertion.

    Every pending customer is priced once on every edge of every route it
    fits, the empty route's included, in one call over a per-demand table
    joined from all of them, and keeps the result sorted, and a head: its
    `depth` cheapest positions. An insertion changes one route, so only that
    route is priced again; each customer keeps the route's `depth` cheapest
    positions in a dict of its changed routes, where the sorted list's
    entries on the route are stale. A head that held an option of the route
    is ranked again from the first `depth` sorted entries on unchanged
    routes and the changed routes' lists, which is exact: the unchanged
    entries are still current, and each changed list is its route's own
    cheapest. Any other head merges the route's new options in. A score
    changes only with the head, so only those customers are scored again.
    """
    inst = ctx.inst
    Q = inst.Q
    fleet = _Fleet(routes, ctx)
    pending = list(removed)
    demand = {u: inst.demand[u - 1] for u in pending}

    # per demand, every edge of every route it fits in one table, and the
    # empty route (None) when it fits that
    rooms = {}
    for du in set(demand.values()):
        joined = [edge for r_idx, load in enumerate(fleet.loads)
                  if r_idx != fleet.opening and load + du <= Q for edge in fleet.table(r_idx)]
        rooms[du] = [joined, None] if fleet.opening is not None and du <= Q else [joined]
    ranked = {}
    for u in pending:
        ranked[u] = options = fleet.price(u, rooms[demand[u]])
        options.sort()
    heads = {u: ranked[u][:depth] for u in pending}
    changed = {u: {} for u in pending}
    # (-regret, cheapest delta, u, r_idx, pos) of each customer with an option
    scores = {}

    def score(u):
        options = heads[u]
        if not options:
            scores.pop(u, None)
            return
        cheapest = options[0]
        if len(options) < depth:
            regret = math.inf
        else:
            regret = 0.0
            for option in options[1:]:
                regret += option[0] - cheapest[0]
        scores[u] = (-regret, cheapest[0], u, cheapest[1], cheapest[2])

    for u in pending:
        score(u)
    while pending:
        if not scores:
            return None
        _, _, u, r_idx, pos = min(scores.values())
        opened = r_idx == fleet.opening
        fleet.insert(u, r_idx, pos)
        pending.remove(u)
        del ranked[u], heads[u], changed[u], scores[u]
        # opening route r_idx leaves the next one, if any, empty at the end of
        # every list; its option costs what r_idx's did, so it can enter a
        # head only when that one left it, by a re-rank
        empty = fleet.opening if opened else None
        load = fleet.loads[r_idx]
        table = None
        for v in pending:
            routes_v = changed[v]
            if empty is not None:
                routes_v[empty] = fleet.price(v, [None], depth)[0] if demand[v] <= Q else []
            if load + demand[v] <= Q:
                if table is None:
                    table = [fleet.table(r_idx)]
                new, = fleet.price(v, table, depth)
            else:
                new = []
            routes_v[r_idx] = new
            head = heads[v]
            for option in head:
                if option[1] == r_idx:
                    heads[v] = _rerank(ranked[v], routes_v, depth)
                    break
            else:
                if new and (len(head) < depth or new[0] < head[-1]):
                    heads[v] = _merge_head(head, new, depth)
                else:
                    continue
            score(v)
    return fleet.served()


def _charge_insertion(routes, removed, ctx, rng):
    """Insertion that avoids creating new charging arcs.

    A position is welcome while the receiving route keeps a pattern with no
    more charging arcs than before. When every placement would force extra
    charging, the empty route is preferred over burdening one in use.

    Options rank by (increase, keep_existing, delta, r_idx, pos). Every
    option with increase 0 has keep_existing 2, so the first one in
    (delta, r_idx, pos) order wins outright: the cheapest option is priced
    first, the others are sorted and priced in that order only when it adds
    charging, up to the first that adds none, and all of them are ranked
    only when each one adds charging.

    A route that `bdp.fits` the battery after the insertion has count 0, so
    the increase is 0 whatever the route's own count; the route's length is
    summed as `_route_distance` sums it, at every pricing. Other counts
    come from the route's `bdp.CountTables`, built when first needed and
    dropped when an insertion changes the route, and so does its own count.
    """
    inst, d = ctx.inst, ctx.d
    fleet = _Fleet(routes, ctx)
    tables = {}     # per route index

    def priced(u, option):
        delta, r_idx, pos = option
        nodes = fleet.routes[r_idx]
        prev, nxt = nodes[pos - 1], nodes[pos]
        dropped, c1, c2 = d[prev][nxt], d[prev][u], d[u][nxt]
        if bdp.fits(inst, _route_distance(nodes, d) - dropped + c1 + c2, dropped):
            return 0.0, 2, delta, r_idx, pos
        table = tables.get(r_idx)
        if table is None:
            table = tables[r_idx] = bdp.CountTables(_route_lengths(nodes, d), inst)
        # math.inf for a route no pattern makes feasible
        before = _count_or_inf(table.route_count())
        after = _count_or_inf(table.insertion_count(pos, c1, c2))
        increase = max(0.0, after - before) if after != math.inf else math.inf
        keep_existing = 1 if (increase > 0 and r_idx == fleet.opening) else 2
        return increase, keep_existing, delta, r_idx, pos

    for u in removed:
        options = fleet.options(u)
        if not options:
            return None
        ranked = [priced(u, min(options))]
        if ranked[0][0] != 0:
            options.sort()
            for option in options[1:]:
                ranked.append(priced(u, option))
                if ranked[-1][0] == 0:
                    break
        increase, _, delta, r_idx, pos = min(ranked)
        if increase == math.inf:
            return None
        tables.pop(r_idx, None)
        fleet.insert(u, r_idx, pos)
    return fleet.served()


def _count_or_inf(count):
    return math.inf if count is None else count


_REPAIR_FUNCS = {
    "random_insertion": _random_insertion,
    "greedy_insertion": _greedy_insertion,
    "sequential_insertion": _sequential_insertion,
    "regret2_insertion": lambda r, rm, ctx, rng: _regret_insertion(r, rm, ctx, rng, 2),
    "regret3_insertion": lambda r, rm, ctx, rng: _regret_insertion(r, rm, ctx, rng, 3),
    "charge_insertion": _charge_insertion,
}

REPAIR_OPS = tuple(_REPAIR_FUNCS)


def repair(op_id: str, partial: Solution, removed: list[int], inst: Instance,
           rng: np.random.Generator, config: SolverConfig | None = None) -> Solution | None:
    """Reinsert removed customers; returns None when some customer fits nowhere."""
    if op_id not in _REPAIR_FUNCS:
        raise ValueError(f"unknown repair operator: {op_id}")
    ctx = _Context(inst, config or SolverConfig())
    routes = [list(r.nodes) for r in partial.mtev_routes]
    rebuilt = _REPAIR_FUNCS[op_id](routes, removed, ctx, rng)
    if rebuilt is None:
        return None
    return Solution.from_routes([Route(i, nodes) for i, nodes in enumerate(_drop_empty(rebuilt))])


# ---------------------------------------------------------------------------
# construction and the main loop
# ---------------------------------------------------------------------------

def initial_solution(inst: Instance, rng: np.random.Generator,
                     d: list[list[float]] | None = None) -> Solution:
    """Nearest-neighbor construction from the depot.

    Every route starts at one of the few depot-closest unserved customers
    and grows by nearest neighbor. A new vehicle opens whenever adding the
    closest unserved customer would break the load limit or the run's
    battery gate. Half the runs close routes already at the charge-free
    boundary; the other half close them only when the route would have no
    feasible charging pattern. With gamma >= rho_t, as on every generated
    instance and so on every pinned corpus, charging an edge never lowers
    the level and every route of two or more edges has a feasible all-charge
    pattern, so that second gate is then capacity-only. The random gate and
    seeds make independent runs explore both charge-heavy and charge-light
    basins; repair operators merge routes far more readily than they split
    them, so some runs must start on the split side.
    Raises when even a dedicated vehicle cannot serve someone, or when
    there are customers and no vehicle.

    One pass: the open route keeps its length, summed as
    `Instance.route_distance` sums it, and the level of its all-charge
    pattern, by the DP's float operations. Charging never lowers a level, so
    a route has a feasible pattern exactly when that one is feasible, and
    its levels move one way, so the last decides; `bdp.min_charge_count`
    decides a level within `bdp.margin` of 0. The charge-free scan stops at
    the first candidate that could not get home even by the shortest way
    back; a started route closes unscanned when no unserved demand fits.
    `d`: the run's distance rows (`_Context.d`), else read from `inst.dist`.
    """
    if inst.n and inst.max_mtev < 1:
        raise InfeasibleInstanceError("no MTEV may be deployed but there are customers")
    charge_free_gate = rng.random() < 0.5
    if d is None:
        d = inst.dist.tolist()
    n, end = inst.n, inst.depot_end
    P, Q, rho_t, gamma = inst.P, inst.Q, inst.rho_t, inst.gamma
    # customers of every row by distance, ties by index: the default sort
    # orders a row without ties uniquely, and rows with ties are sorted stably
    block = inst.dist[:n + 1, 1:n + 1]
    idx = np.argsort(block, axis=1)
    ranked = np.take_along_axis(block, idx, axis=1)
    tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
    if tied.any():
        idx[tied] = np.argsort(block[tied], axis=1, kind="stable")
    nearest = (idx + 1).tolist()
    demand = [0] + inst.demand
    unserved = set(inst.customers)
    waiting = Counter(inst.demand)          # unserved customers per demand
    sizes = sorted(waiting)
    lightest = 0                            # index in sizes of the lightest unserved demand
    back = min(d[end][1:end], default=0.0)  # the shortest way home from any customer
    routes: list[list[int]] = []
    current: list[int] = [0]
    load, length, level = 0, 0.0, P

    def chargeable(nodes: list[int]) -> bool:
        return bdp.min_charge_count(Route(0, nodes), inst, _route_lengths(nodes, d)) is not None

    def fits(u: int) -> bool:
        """Whether u may join the open route, its last stop being `last`."""
        if load + demand[u] > Q:
            return False
        c1, c2 = d[last][u], d[u][end]
        if charge_free_gate:
            return rho_t * ((length + c1) + c2) <= P
        x = level - rho_t * c1 + gamma * c1
        if x > P:
            x = P
        x = x - rho_t * c2 + gamma * c2
        if x > P:
            x = P
        tol = bdp.margin(inst, length + c1 + c2)
        return x > tol or (x >= -tol and chargeable(current + [u, end]))

    def serve(u: int) -> None:
        nonlocal lightest
        unserved.remove(u)
        waiting[demand[u]] -= 1
        while lightest < len(sizes) and not waiting[sizes[lightest]]:
            lightest += 1

    while unserved:
        last = current[-1]
        row = nearest[last]
        placed = None
        if len(current) == 1:
            # a random one of the three depot-closest unserved customers
            # goes first, the others next, then the rest by distance
            shortlist = []
            for i, u in enumerate(row):
                if u in unserved:
                    shortlist.append(u)
                    if len(shortlist) == 3:
                        break
            rest = islice(row, i + 1, None)
            if len(shortlist) > 1:
                shortlist.insert(0, shortlist.pop(int(rng.integers(len(shortlist)))))
            placed = next((u for u in shortlist if fits(u)), None)
        elif load + sizes[lightest] > Q:
            rest = ()
        else:
            rest = row
        if placed is None:
            d_last = d[last]
            for u in rest:
                if u not in unserved:
                    continue
                if charge_free_gate and rho_t * ((length + d_last[u]) + back) > P:
                    break
                if fits(u):
                    placed = u
                    break
        if placed is not None:
            c = d[last][placed]
            length += c
            level = level - rho_t * c + gamma * c
            if level > P:
                level = P
            load += demand[placed]
            current.append(placed)
            serve(placed)
            continue
        if len(current) == 1:
            # nobody starts a route under the gate; give the closest
            # serviceable customer a dedicated, possibly charged, vehicle
            order = shortlist + [u for u in nearest[0]
                                 if u in unserved and u not in shortlist]
            lone = next((u for u in order
                         if demand[u] <= Q and chargeable([0, u, end])), None)
            if lone is None:
                raise InfeasibleInstanceError(
                    f"customer {order[0]} cannot be served even by a dedicated vehicle"
                )
            serve(lone)
            current = [0, lone]
        routes.append(current + [end])
        if len(routes) >= inst.max_mtev and unserved:
            raise InfeasibleInstanceError("vehicle cap reached with customers unserved")
        current = [0]
        load, length, level = 0, 0.0, P
    if len(current) > 1:
        routes.append(current + [end])
    return Solution.from_routes([Route(i, nodes) for i, nodes in enumerate(routes)])


def _coordinate_routes(routes: list[Route], ctx: _Context):
    """Pattern enumeration plus truck coordination; None when uncoordinatable.

    Every route's length is summed once, as `_route_distance` sums it, for
    the routing cost. A route that `bdp.fits` the battery charges nothing:
    its one pattern is `CHARGE_FREE`, it has no duties and it is left out
    of the key, and it gets no record. `_screen` calls such a route
    trivial, so the record would hold the same. Every other route's record
    is looked up once; a pattern-infeasible route makes the candidate
    uncoordinatable. The plan is keyed in `ctx.coordinated` by the routes
    that may charge, with their indices: a candidate whose key is among the
    run's last `COORDINATION_MEMO_SIZE` distinct ones takes the remembered
    plan. Any other candidate is coordinated afresh from its records,
    exhaustively while the combination count and the minimum duty count
    stay small, greedily otherwise to keep iterations cheap. The cost is
    the candidate's own routing cost plus the plan's trucks.
    """
    inst, cfg, d = ctx.inst, ctx.cfg, ctx.d
    results = []
    charging = []               # (index, record) of each route that may charge
    # summed as `routing_cost` sums it
    total = 0.0
    used = 0
    for i, r in enumerate(routes):
        length = _route_distance(r.nodes, d)
        total += inst.rho_t * length
        if r.serves_customers():
            used += 1
        if bdp.fits(inst, length):
            results.append(CHARGE_FREE)
            continue
        rec = ctx.patterns(r.nodes)
        if not rec.result.feasible:
            return None
        results.append(rec.result)
        if rec.charged:
            charging.append((i, rec))
    fixed = total + inst.rho_e * used
    key = tuple((i, tuple(routes[i].nodes)) for i, _ in charging)
    memo = ctx.coordinated
    if key in memo:
        memo.move_to_end(key)
        plan = memo[key]
    else:
        arcs = [[] for _ in routes]
        for i, rec in charging:
            arcs[i] = _record_arcs(rec, i, routes[i], inst)
        combos = math.prod(len(res.patterns) for res in results)
        duties = sum(res.min_cardinality() for res in results)
        if combos <= cfg.lns_exact_combos and duties <= cfg.lns_exact_duties:
            outcome = coordination.coordinate_exact(
                routes, results, inst, node_budget=cfg.assign_node_budget,
                transfer_depletes=cfg.mct_transfer_depletes, fixed=fixed, arcs=arcs,
                rows=d)
        else:
            outcome = coordination.coordinate_heuristic(
                routes, results, inst, max_retries=cfg.heuristic_retries,
                transfer_depletes=cfg.mct_transfer_depletes, fixed=fixed, arcs=arcs,
                rows=d)
        plan = memo[key] = outcome.plan if outcome is not None else None
        if len(memo) > COORDINATION_MEMO_SIZE:
            memo.popitem(last=False)
    if plan is None:
        return None
    return coordination.CoordinationResult(plan, fixed + inst.rho_c * plan.mct_count)


def _record_arcs(rec: _RouteRecord, r_idx: int, route: Route,
                 inst: Instance) -> list[ChargingDuty]:
    """The duties of every edge a pattern of the route charges, as route
    r_idx; built once per record and index."""
    arcs = rec.arcs.get(r_idx)
    if arcs is None:
        arcs = rec.arcs[r_idx] = route_duties(r_idx, route, rec.times, rec.charged, inst)
    return arcs


def run(inst: Instance, config: SolverConfig | None = None,
        rng: np.random.Generator | None = None) -> RunResult:
    """Full hybrid search; returns the best coordinated solution found."""
    cfg = config or SolverConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    started = time.perf_counter()
    ctx = _Context(inst, cfg)

    shell = initial_solution(inst, rng, ctx.d)
    inc_routes = [r.copy() for r in shell.mtev_routes]
    outcome = _coordinate_routes(inc_routes, ctx)
    if outcome is None:
        inc_cost = math.inf
        best_pack = None
        temp = cfg.init_temp_factor * routing_cost(inc_routes, inst)
    else:
        inc_cost = outcome.cost
        best_pack = ([r.copy() for r in inc_routes], outcome)
        temp = cfg.init_temp_factor * outcome.cost
    initial_cost = inc_cost
    best_cost = inc_cost

    d_stats = OperatorStats(DESTROY_OPS)
    r_stats = OperatorStats(REPAIR_OPS)
    log: list[tuple] = []

    n = inst.n
    k_lo = max(1, int(cfg.removal_min_frac * n))
    k_hi = max(2, int(cfg.removal_max_frac * n))
    k_hi = max(k_lo, min(k_hi, n))
    k_lo = min(k_lo, n)

    iters_done = 0
    for it in range(cfg.iterations):
        if cfg.time_limit is not None and time.perf_counter() - started >= cfg.time_limit:
            break
        iters_done = it + 1
        d_idx = d_stats.select(rng)
        r_idx = r_stats.select(rng)
        k = int(rng.integers(k_lo, k_hi + 1))

        routes_now = [list(r.nodes) for r in inc_routes]
        new_routes, removed = _DESTROY_FUNCS[DESTROY_OPS[d_idx]](routes_now, ctx, rng, k)
        score = 0.0
        cand_cost = math.inf
        accepted = False
        if removed:
            rebuilt = _REPAIR_FUNCS[REPAIR_OPS[r_idx]](_drop_empty(new_routes), removed, ctx, rng)
            if rebuilt is not None:
                cand_routes = [Route(i, nodes) for i, nodes in enumerate(rebuilt)]
                outcome = _coordinate_routes(cand_routes, ctx)
                if outcome is not None:
                    cand_cost = outcome.cost
                    if cand_cost < best_cost - 1e-9:
                        score = cfg.score_best
                        accepted = True
                        best_cost = cand_cost
                        best_pack = ([r.copy() for r in cand_routes], outcome)
                    elif cand_cost < inc_cost - 1e-9:
                        score = cfg.score_improve
                        accepted = True
                    else:
                        delta = cand_cost - inc_cost
                        # -delta / temp overflows for delta just below 0
                        if temp > 0 and rng.random() < math.exp(min(0.0, -delta / temp)):
                            score = cfg.score_accept_worse
                            accepted = True
                    if accepted:
                        inc_routes = cand_routes
                        inc_cost = cand_cost
        d_stats.record(d_idx, score)
        r_stats.record(r_idx, score)
        temp *= cfg.cooling
        log.append((it, DESTROY_OPS[d_idx], REPAIR_OPS[r_idx], inc_cost, best_cost, temp))
        if (it + 1) % cfg.segment_size == 0:
            d_stats.end_segment(cfg.reaction, cfg.weight_floor)
            r_stats.end_segment(cfg.reaction, cfg.weight_floor)

    runtime = time.perf_counter() - started
    if best_pack is None:
        return RunResult(None, math.inf, False, iters_done, runtime, initial_cost,
                         log, d_stats, r_stats)
    routes, outcome = best_pack
    solution = coordination.assemble_solution(routes, outcome, inst,
                                              cfg.mct_transfer_depletes)
    report = check_feasibility(solution, inst, cfg.mct_transfer_depletes)
    return RunResult(solution, solution.total_cost, report.passed, iters_done,
                     runtime, initial_cost, log, d_stats, r_stats, outcome, report)
