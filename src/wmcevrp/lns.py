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
from dataclasses import dataclass, field

import numpy as np

from . import bdp, coordination
from .config import SolverConfig
from .model import (
    InfeasibleInstanceError,
    Instance,
    Route,
    Solution,
    check_feasibility,
    routing_cost,
)

DESTROY_OPS = (
    "random_removal",
    "distance_removal",
    "string_removal",
    "worst_removal",
    "shaw_removal",
    "charge_removal",
)

REPAIR_OPS = (
    "random_insertion",
    "greedy_insertion",
    "sequential_insertion",
    "regret2_insertion",
    "regret3_insertion",
    "charge_insertion",
)


@dataclass
class OperatorStats:
    """Weights, per-segment scores and usage counts for one operator family."""

    names: tuple[str, ...]
    weights: np.ndarray = None
    scores: np.ndarray = None
    uses: np.ndarray = None
    total_uses: np.ndarray = None

    def __post_init__(self):
        k = len(self.names)
        if self.weights is None:
            self.weights = np.ones(k)
        self.scores = np.zeros(k)
        self.uses = np.zeros(k, dtype=int)
        self.total_uses = np.zeros(k, dtype=int)

    def probabilities(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    def select(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.names), p=self.probabilities()))

    def record(self, idx: int, score: float) -> None:
        self.scores[idx] += score
        self.uses[idx] += 1
        self.total_uses[idx] += 1

    def end_segment(self, reaction: float, floor: float) -> None:
        """Close a segment: blend weights toward each operator's mean score."""
        for i in range(len(self.names)):
            if self.uses[i] > 0:
                mean = self.scores[i] / self.uses[i]
                self.weights[i] = max(floor, (1 - reaction) * self.weights[i] + reaction * mean)
        self.scores[:] = 0.0
        self.uses[:] = 0


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

    @property
    def mtev_used(self) -> int:
        return sum(self.best.used_mtev) if self.best else 0

    @property
    def mct_used(self) -> int:
        return sum(self.best.used_mct) if self.best else 0


class _Context:
    """Per-run caches shared by operators: pattern memo and relatedness."""

    def __init__(self, inst: Instance, cfg: SolverConfig):
        self.inst = inst
        self.cfg = cfg
        self._bdp_memo: dict[tuple[int, ...], bdp.BdpResult] = {}
        self._relatedness = None

    def patterns(self, nodes: list[int]) -> bdp.BdpResult:
        key = tuple(nodes)
        hit = self._bdp_memo.get(key)
        if hit is None:
            hit = bdp.enumerate_patterns(Route(0, list(nodes)), self.inst,
                                         max_edges=self.cfg.bdp_max_edges)
            if len(self._bdp_memo) < 200_000:
                self._bdp_memo[key] = hit
        return hit

    def relatedness(self) -> np.ndarray:
        if self._relatedness is None:
            inst = self.inst
            n = inst.n
            sub = inst.dist[1:n + 1, 1:n + 1]
            span = sub.max() - sub.min()
            dist_hat = (sub - sub.min()) / span if span > 0 else np.zeros_like(sub)
            dem = np.array(inst.demand, dtype=float)
            dd = np.abs(dem[:, None] - dem[None, :])
            dspan = dd.max() - dd.min()
            dem_hat = (dd - dd.min()) / dspan if dspan > 0 else np.zeros_like(dd)
            self._relatedness = (self.cfg.shaw_distance_weight * dist_hat
                                 + self.cfg.shaw_demand_weight * dem_hat)
        return self._relatedness


def _route_load(nodes: list[int], inst: Instance) -> int:
    return sum(inst.demand_of(u) for u in nodes[1:-1])


def _detour(nodes: list[int], pos: int, inst: Instance) -> float:
    """Distance saved by removing the interior node at position pos (1-based)."""
    prev, u, nxt = nodes[pos - 1], nodes[pos], nodes[pos + 1]
    d = inst.dist
    return float(d[prev, u] + d[u, nxt] - d[prev, nxt])


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
    victims = [int(u) for u in rng.choice(served, size=k, replace=False)]
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
    inst = ctx.inst
    return _greedy_metric_removal(routes, k, lambda nodes, pos: _detour(nodes, pos, inst))


def _worst_removal(routes, ctx, rng, k):
    inst = ctx.inst

    def metric(nodes, pos):
        saving = inst.rho_t * _detour(nodes, pos, inst)
        if len(nodes) == 3:   # removal would empty the route
            saving += inst.rho_e
        return saving

    return _greedy_metric_removal(routes, k, metric)


def _charge_removal(routes, ctx, rng, k):
    """Target routes whose energy need exceeds the battery; drop the customer
    whose removal saves the most energy."""
    inst = ctx.inst
    return _greedy_metric_removal(
        routes, k, lambda nodes, pos: inst.rho_t * _detour(nodes, pos, inst),
        over_battery=lambda nodes: inst.rho_t * inst.route_distance(nodes) > inst.P)


def _string_removal(routes, ctx, rng, k):
    """Remove contiguous segments of random routes until k customers are gone."""
    cfg = ctx.cfg
    routes = [list(r) for r in routes]
    removed = []
    while len(removed) < k:
        nonempty = [i for i, nodes in enumerate(routes) if len(nodes) > 2]
        if not nonempty:
            break
        r_idx = int(rng.choice(nonempty))
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
    """Grow a removal set of customers similar in location and demand."""
    rel = ctx.relatedness()
    served = sorted(u for nodes in routes for u in nodes[1:-1])
    if not served:
        return [list(r) for r in routes], []
    k = min(k, len(served))
    seed = int(rng.choice(served))
    removed = [seed]
    remaining = [u for u in served if u != seed]
    while len(removed) < k and remaining:
        ref = removed[int(rng.integers(len(removed)))]
        pick = min(remaining, key=lambda u: (rel[ref - 1, u - 1], u))
        removed.append(pick)
        remaining.remove(pick)
    return _remove_customers(routes, removed), removed


_DESTROY_FUNCS = {
    "random_removal": _random_removal,
    "distance_removal": _distance_removal,
    "string_removal": _string_removal,
    "worst_removal": _worst_removal,
    "shaw_removal": _shaw_removal,
    "charge_removal": _charge_removal,
}


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

def _route_options(nodes, u, r_idx, inst):
    """(delta_cost, route_idx, pos) of inserting u at every position of one route."""
    d = inst.dist
    return [(inst.rho_t * float(d[prev, u] + d[u, nxt] - d[prev, nxt]), r_idx, pos)
            for pos, (prev, nxt) in enumerate(zip(nodes, nodes[1:]), start=1)]


def _fresh_route_delta(u, inst):
    """Cost of serving u alone on a newly acquired vehicle."""
    d = inst.dist
    return inst.rho_t * float(d[0, u] + d[u, inst.depot_end]) + inst.rho_e


def _can_open(routes, u, inst):
    return len(routes) < inst.max_mtev and inst.demand_of(u) <= inst.Q


def _insertion_options(routes, u, inst, loads):
    """All capacity-feasible positions for u, as (delta_cost, route_idx, pos).

    route_idx == len(routes) denotes opening a fresh route, priced with the
    vehicle acquisition cost.
    """
    du = inst.demand_of(u)
    options = []
    for r_idx, nodes in enumerate(routes):
        if loads[r_idx] + du <= inst.Q:
            options += _route_options(nodes, u, r_idx, inst)
    if _can_open(routes, u, inst):
        options.append((_fresh_route_delta(u, inst), len(routes), 1))
    return options


def _apply_insertion(routes, loads, u, r_idx, pos, inst):
    if r_idx == len(routes):
        routes.append([0, u, inst.depot_end])
        loads.append(inst.demand_of(u))
    else:
        routes[r_idx].insert(pos, u)
        loads[r_idx] += inst.demand_of(u)


def _insert_each_best(routes, order, ctx):
    inst = ctx.inst
    routes = [list(r) for r in routes]
    loads = [_route_load(nodes, inst) for nodes in routes]
    for u in order:
        options = _insertion_options(routes, u, inst, loads)
        if not options:
            return None
        _, r_idx, pos = min(options)
        _apply_insertion(routes, loads, u, r_idx, pos, inst)
    return routes


def _random_insertion(routes, removed, ctx, rng):
    order = [int(u) for u in rng.permutation(removed)]
    return _insert_each_best(routes, order, ctx)


def _sequential_insertion(routes, removed, ctx, rng):
    return _insert_each_best(routes, list(removed), ctx)


def _greedy_insertion(routes, removed, ctx, rng):
    """Globally cheapest insertion first."""
    return _regret_insertion(routes, removed, ctx, rng, 1)


def _regret_insertion(routes, removed, ctx, rng, depth):
    """Insert the customer with the largest regret over its best k positions.

    Customers with fewer than `depth` feasible positions get infinite regret
    and therefore go first. At depth 1 every regret is 0, so the cheapest
    insertion goes first: greedy insertion.

    Every pending customer keeps, per route, its `depth` cheapest positions.
    An insertion changes one route, so only that route is priced again.
    """
    inst = ctx.inst
    routes = [list(r) for r in routes]
    loads = [_route_load(nodes, inst) for nodes in routes]
    pending = list(removed)

    def cheapest(r_idx, u):
        if loads[r_idx] + inst.demand_of(u) > inst.Q:
            return []
        options = _route_options(routes[r_idx], u, r_idx, inst)
        return [min(options)] if depth == 1 else sorted(options)[:depth]

    fresh = {u: _fresh_route_delta(u, inst) for u in pending}
    cached = {u: [cheapest(r_idx, u) for r_idx in range(len(routes))] for u in pending}
    while pending:
        best = None
        for u in pending:
            options = [o for per_route in cached[u] for o in per_route]
            if _can_open(routes, u, inst):
                options.append((fresh[u], len(routes), 1))
            if not options:
                continue
            options.sort()
            if len(options) < depth:
                regret = math.inf
            else:
                regret = sum(options[i][0] - options[0][0] for i in range(1, depth))
            cand = (-regret, options[0][0], u)
            if best is None or cand < best[0]:
                best = (cand, u, options[0][1], options[0][2])
        if best is None:
            return None
        _, u, r_idx, pos = best
        opened = r_idx == len(routes)
        _apply_insertion(routes, loads, u, r_idx, pos, inst)
        pending.remove(u)
        del cached[u]
        for v in pending:
            if opened:
                cached[v].append(cheapest(r_idx, v))
            else:
                cached[v][r_idx] = cheapest(r_idx, v)
    return routes


def _min_charge_cardinality(nodes, ctx):
    card = bdp.min_charge_count(Route(0, nodes), ctx.inst, ctx.cfg.bdp_max_edges)
    return math.inf if card is None else card


def _charge_insertion(routes, removed, ctx, rng):
    """Insertion that avoids creating new charging arcs.

    A position is welcome while the receiving route keeps a pattern with no
    more charging arcs than before. When every placement would force extra
    charging, a fresh route is preferred over burdening an existing one.
    """
    inst = ctx.inst
    routes = [list(r) for r in routes]
    loads = [_route_load(nodes, inst) for nodes in routes]
    base_card = [_min_charge_cardinality(nodes, ctx) for nodes in routes]
    for u in removed:
        options = _insertion_options(routes, u, inst, loads)
        if not options:
            return None
        ranked = []
        for delta, r_idx, pos in options:
            fresh = r_idx == len(routes)
            if fresh:
                nodes = [0, u, inst.depot_end]
                before = 0.0
            else:
                nodes = routes[r_idx][:pos] + [u] + routes[r_idx][pos:]
                before = base_card[r_idx]
            after = _min_charge_cardinality(nodes, ctx)
            increase = max(0.0, after - before) if after != math.inf else math.inf
            keep_existing = 1 if (increase > 0 and fresh) else 2
            ranked.append((increase, keep_existing, delta, r_idx, pos, after))
        ranked.sort(key=lambda o: o[:5])
        increase, _, delta, r_idx, pos, after = ranked[0]
        if increase == math.inf:
            return None
        _apply_insertion(routes, loads, u, r_idx, pos, inst)
        if r_idx == len(base_card):
            base_card.append(after)
        else:
            base_card[r_idx] = after
    return routes


_REPAIR_FUNCS = {
    "random_insertion": _random_insertion,
    "greedy_insertion": _greedy_insertion,
    "sequential_insertion": _sequential_insertion,
    "regret2_insertion": lambda r, rm, ctx, rng: _regret_insertion(r, rm, ctx, rng, 2),
    "regret3_insertion": lambda r, rm, ctx, rng: _regret_insertion(r, rm, ctx, rng, 3),
    "charge_insertion": _charge_insertion,
}


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
    rebuilt = _drop_empty(rebuilt)
    return Solution.from_routes([Route(i, nodes) for i, nodes in enumerate(rebuilt)])


# ---------------------------------------------------------------------------
# construction and the main loop
# ---------------------------------------------------------------------------

def initial_solution(inst: Instance, rng: np.random.Generator,
                     config: SolverConfig | None = None) -> Solution:
    """Nearest-neighbor construction from the depot.

    Every route starts at one of the few depot-closest unserved customers
    and grows by nearest neighbor. A new vehicle opens whenever adding the
    closest unserved customer would break the load limit or the run's
    battery gate: half the runs demand a feasible charging pattern, the
    other half close routes already at the charge-free boundary. The random
    gate and seeds make independent runs explore both charge-heavy and
    charge-light basins; repair operators merge routes far more readily
    than they split them, so some runs must start on the split side.
    Raises when even a dedicated vehicle cannot serve someone.
    """
    cfg = config or SolverConfig()
    charge_free_gate = rng.random() < 0.5
    unserved = set(inst.customers)
    routes: list[list[int]] = []
    current: list[int] = [0]
    load = 0

    def chargeable(nodes: list[int]) -> bool:
        return bdp.min_charge_count(Route(0, nodes), inst, cfg.bdp_max_edges) is not None

    def battery_ok(nodes: list[int]) -> bool:
        if charge_free_gate:
            return inst.rho_t * inst.route_distance(nodes) <= inst.P
        return chargeable(nodes)

    while unserved:
        last = current[-1]
        candidates = sorted(unserved, key=lambda u: (float(inst.dist[last, u]), u))
        if len(current) == 1 and len(candidates) > 1:
            shortlist = candidates[:3]
            pick = shortlist.pop(int(rng.integers(len(shortlist))))
            candidates = [pick] + [u for u in candidates if u != pick]
        placed = False
        for u in candidates:
            if load + inst.demand_of(u) > inst.Q:
                continue
            if not battery_ok(current + [u, inst.depot_end]):
                continue
            current.append(u)
            load += inst.demand_of(u)
            unserved.remove(u)
            placed = True
            break
        if not placed:
            if len(current) == 1:
                # nobody starts a route under the gate; give the closest
                # serviceable customer a dedicated, possibly charged, vehicle
                lone = next((u for u in candidates
                             if inst.demand_of(u) <= inst.Q
                             and chargeable([0, u, inst.depot_end])), None)
                if lone is None:
                    raise InfeasibleInstanceError(
                        f"customer {candidates[0]} cannot be served even by a dedicated vehicle"
                    )
                unserved.remove(lone)
                current = [0, lone]
            routes.append(current + [inst.depot_end])
            if len(routes) >= inst.max_mtev and unserved:
                raise InfeasibleInstanceError("vehicle cap reached with customers unserved")
            current = [0]
            load = 0
    if len(current) > 1:
        routes.append(current + [inst.depot_end])
    return Solution.from_routes([Route(i, nodes) for i, nodes in enumerate(routes)])


def _coordinate_routes(routes: list[Route], ctx: _Context):
    """Pattern enumeration plus truck coordination; None when uncoordinatable.

    Exhaustive coordination runs only while the combination count and the
    minimum duty count stay small; larger candidates go to the greedy
    coordinator to keep iterations cheap.
    """
    inst, cfg = ctx.inst, ctx.cfg
    results = [ctx.patterns(r.nodes) for r in routes]
    if any(not res.feasible for res in results):
        return None
    combos = 1
    duties = 0
    for res in results:
        combos *= max(1, len(res.patterns))
        duties += res.min_cardinality() or 0
    if combos <= min(cfg.exact_cap, cfg.lns_exact_combos) and duties <= cfg.lns_exact_duties:
        return coordination.coordinate_exact(
            routes, results, inst,
            exact_cap=cfg.exact_cap,
            node_budget=cfg.assign_node_budget,
            transfer_depletes=cfg.mct_transfer_depletes,
        )
    return coordination.coordinate_heuristic(
        routes, results, inst,
        max_retries=cfg.heuristic_retries,
        transfer_depletes=cfg.mct_transfer_depletes,
    )


def run(inst: Instance, config: SolverConfig | None = None,
        rng: np.random.Generator | None = None, seed: int | None = None) -> RunResult:
    """Full hybrid search; returns the best coordinated solution found."""
    cfg = config or SolverConfig()
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed or 0))
    started = time.perf_counter()
    ctx = _Context(inst, cfg)

    shell = initial_solution(inst, rng, cfg)
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
                cand_routes = [Route(i, nodes) for i, nodes in enumerate(_drop_empty(rebuilt))]
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
                        if temp > 0 and rng.random() < math.exp(-delta / temp):
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
                     runtime, initial_cost, log, d_stats, r_stats, outcome)
