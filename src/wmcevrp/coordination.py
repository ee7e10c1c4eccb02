"""Charging coordination: the arcs each MTEV is charged on, and the truck
that co-travels each of them.

Routing fixes the travel-energy and MTEV acquisition terms of the objective,
so this layer minimizes the MCT acquisition term, the truck count, and
nothing else. A plan holds only the duties and the truck of each; truck
routes are listed by `assemble_solution`, and the LNS chooses between the
exact and the greedy coordinator in `lns._coordinate_routes`. The exact
search is count-first: it looks only for plans with fewer trucks than the
best so far and stops when no plan can use fewer.
Deadhead distance carries no cost; it is neither minimized nor reported.
The charging duty, its builder and its order come from `model`, which the
checker shares.

The exact search prunes with an interval-graph clique bound, kept
incrementally. `_segment_covers` cuts the time line at the ends of every
duty's occupied interval and gives each duty a bitmask of the segments it
occupies; a pattern's cover is the union of its duties' masks, which never
overlap. The search carries `depth`, where depth[k] is the segments occupied
by at least k+1 chosen duties, and `_deepen` adds a pattern's cover with one
integer operation per level; the bound is len(depth). `mct_lower_bound`
folds the same step over single duties.

The duties are ranked once in `model.duty_order`, the order a truck serves
them, and the search carries its selection as a bitmask of ranks. Once it
looks for a one-truck plan, `_follow_closure` links the duties that one
truck could serve in sequence, and a prefix with an unlinked pair is pruned.

`_try_serve` and `_gets_home` hold all of the truck arithmetic: deadhead
legs, arrival times and battery levels; `_follow_closure` repeats only the
arrival test of `_try_serve`, as one float comparison per duty pair,
`_assign_greedy` sums the deadhead it ranks trucks by, and `_truck_route`
only lists nodes. This layer does not check its own plans;
`model.check_feasibility` re-derives the truck schedules and is the single
independent check of synchronization and truck energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bdp import BdpResult
from .config import SolverConfig
from .model import (
    EPS,
    ChargingDuty,
    Instance,
    Route,
    Solution,
    duty_order,
    finalize_solution,
    mtev_arrival_times,
    route_duties,
    routing_cost,
)


@dataclass
class CoordinationPlan:
    duties: list[ChargingDuty]               # in `duty_order`
    assignment: list[int]                    # duty index -> MCT index
    certified: bool

    @property
    def mct_count(self) -> int:
        # trucks are numbered in order of first use
        return max(self.assignment) + 1 if self.assignment else 0


@dataclass
class CoordinationResult:
    plan: CoordinationPlan
    cost: float


@dataclass(slots=True)
class _TruckState:
    position: int
    ready: float
    battery: float
    closed: bool         # parked at the return depot, takes no further duties


def _charging_arcs(routes: list[Route], bdp_results: list[BdpResult],
                   inst: Instance) -> list[list[ChargingDuty]]:
    """Per route, the duty of every edge that some pattern of it charges, in
    edge order; a route that never charges gets none and no arrival times."""
    arcs = []
    for r_idx, (route, res) in enumerate(zip(routes, bdp_results)):
        charged = res.charged()
        arcs.append(route_duties(r_idx, route, mtev_arrival_times(route, inst), charged, inst)
                    if charged else [])
    return arcs


def _segment_covers(duties: list[ChargingDuty]) -> list[int]:
    """Each duty's occupied time segments as a bitmask.

    A truck may reach its next duty up to EPS late (`_try_serve`), so each
    duty occupies its truck over [start, end - 2*EPS); the second EPS absorbs
    rounding. The time line is cut at the distinct endpoints of these
    intervals; bit k stands for the k-th segment between them. Two duties
    overlap exactly when their covers share a bit, so touching intervals and
    overlaps shorter than 2*EPS share none. A duty shorter than 2*EPS
    occupies nothing.
    """
    spans = [(d.start, d.end - 2 * EPS) for d in duties]
    cuts = sorted({t for span in spans if span[1] > span[0] for t in span})
    index = {t: k for k, t in enumerate(cuts)}
    return [(1 << index[b]) - (1 << index[a]) if b > a else 0 for a, b in spans]


def _deepen(depth: tuple[int, ...], cover: int) -> tuple[int, ...]:
    """Segment counters after adding duties that occupy `cover` and do not
    overlap one another: depth[k] holds the segments occupied by at least
    k+1 duties, so len(depth) is the peak overlap."""
    if not cover:
        return depth
    out = []
    carry = cover               # new segments reaching level k: depth[k-1] & cover
    for k, level in enumerate(depth):
        if not carry:
            return tuple(out) + depth[k:]
        out.append(level | carry)
        carry = level & cover
    if carry:
        out.append(carry)
    return tuple(out)


def mct_lower_bound(duties: list[ChargingDuty]) -> int:
    """Interval-graph clique bound: max number of duties occupying one
    segment of `_segment_covers`, and at least one truck for any duty.
    Overlaps shorter than 2*EPS are not counted, so the bound never exceeds
    the truck count of a feasible assignment."""
    if not duties:
        return 0
    depth: tuple[int, ...] = ()
    for cover in _segment_covers(duties):
        depth = _deepen(depth, cover)
    return max(len(depth), 1)


def _try_serve(state: _TruckState, duty: ChargingDuty, inst: Instance,
               transfer_depletes: bool):
    """Next truck state after deadheading to a duty's tail and co-traveling
    its arc, or None when the truck is parked, reaches the tail after the
    MTEV, stores less than the transfer there or ends the arc below zero.
    The truck is ready again when the MTEV reaches the head."""
    if state.closed:
        return None
    leg = float(inst.dist[state.position, duty.tail])
    if state.ready + leg > duty.start + EPS:
        return None
    battery = state.battery - inst.phi * (leg + duty.distance)
    if transfer_depletes:
        battery -= duty.transfer
    if battery < -EPS:
        return None
    if state.battery - inst.phi * leg < duty.transfer - EPS:
        return None
    return _TruckState(
        position=duty.head,
        ready=duty.end,
        battery=battery,
        closed=duty.head == inst.depot_end,
    )


def _gets_home(state: _TruckState, inst: Instance) -> bool:
    """Whether the truck is parked or its battery covers the deadhead home."""
    if state.closed:
        return True
    leg = float(inst.dist[state.position, inst.depot_end])
    return not state.battery - inst.phi * leg < -EPS


def _follow_closure(duties: list[ChargingDuty], inst: Instance) -> list[int]:
    """Which duties may share one truck, as far as arrival times tell.

    `duties` are in `duty_order`, the order in which a truck serves them.
    Duty b follows duty a when a comes first, a does not end at the return
    depot and a.end + dist[a.head][b.tail] <= b.start + EPS, the arrival
    test of `_try_serve`. Mask k has bit j set when j == k or a chain of
    follows through `duties` links k and j, in either direction. The duties
    of one truck are pairwise linked, so a set with an unlinked pair needs
    two trucks. This holds without the triangle inequality; battery is
    ignored.
    """
    n = len(duties)
    after = [0] * n             # duties reachable from k by follows
    for i in range(n - 1, -1, -1):
        a = duties[i]
        if a.head == inst.depot_end:
            continue
        row = inst.dist[a.head].tolist()
        reach = 0
        for j in range(i + 1, n):
            b = duties[j]
            # a duty already reached brings its own reach along
            if not reach >> j & 1 and a.end + row[b.tail] <= b.start + EPS:
                reach |= 1 << j | after[j]
        after[i] = reach
    linked = [1 << k | after[k] for k in range(n)]
    for i, reach in enumerate(after):
        while reach:
            low = reach & -reach
            linked[low.bit_length() - 1] |= 1 << i
            reach ^= low
    return linked


def _chain_fits(levels, ranked: list[ChargingDuty], inst: Instance) -> list[list[int]]:
    """Per level of `coordinate_exact` and per option: the rank bits of the
    duties linked to every duty the option adds."""
    linked = _follow_closure(ranked, inst)
    fits = []
    for options in levels:
        row = []
        for added, _ in options:
            fit = -1
            while added:
                low = added & -added
                fit &= linked[low.bit_length() - 1]
                added ^= low
            row.append(fit)
        fits.append(row)
    return fits


def _fresh_truck(inst: Instance) -> _TruckState:
    return _TruckState(position=0, ready=0.0, battery=inst.B, closed=False)


def _assign_exact(duties: list[ChargingDuty], inst: Instance, max_mct: int,
                  transfer_depletes: bool, node_budget: int, floor: int):
    """Fewest-truck duty assignment with at most max_mct trucks.

    Chains duties in start order, backtracking over existing-truck and
    new-truck choices. Once an assignment is found, the search looks only
    for one with strictly fewer trucks, and it stops when the count reaches
    `floor`, which must be `mct_lower_bound(duties)`: no assignment can beat
    it. Deadhead is not minimized: the first assignment found at the final
    count is kept.

    Returns (found, complete). found is (count, assignment), or None when no
    assignment was found. complete is False when the node budget ran out, so
    a smaller count, or when found is None any assignment at all, may have
    been missed; in that case the greedy assignment is tried before giving up.
    """
    if not duties:
        return (0, []), True
    if floor > max_mct:
        return None, True
    beat = [max_mct + 1]        # truck count an assignment must stay below
    found: list = [None]
    nodes = [0]
    exhausted = [False]
    assignment = [0] * len(duties)
    fresh = _fresh_truck(inst)

    def rec(idx: int, trucks: list[_TruckState]) -> None:
        if exhausted[0] or beat[0] == floor or len(trucks) >= beat[0]:
            return
        nodes[0] += 1
        if nodes[0] > node_budget:
            exhausted[0] = True
            return
        if idx == len(duties):
            if all(_gets_home(t, inst) for t in trucks):
                beat[0] = len(trucks)
                found[0] = (len(trucks), list(assignment))
            return
        duty = duties[idx]
        for t_idx, state in enumerate(trucks):
            nxt = _try_serve(state, duty, inst, transfer_depletes)
            if nxt is None:
                continue
            trucks[t_idx] = nxt
            assignment[idx] = t_idx
            rec(idx + 1, trucks)
            trucks[t_idx] = state
        if len(trucks) < beat[0] - 1:
            nxt = _try_serve(fresh, duty, inst, transfer_depletes)
            if nxt is not None:
                trucks.append(nxt)
                assignment[idx] = len(trucks) - 1
                rec(idx + 1, trucks)
                trucks.pop()

    rec(0, [])
    if exhausted[0] and found[0] is None:
        greedy, _ = _assign_greedy(duties, inst, max_mct, transfer_depletes)
        if greedy is not None:
            found[0] = (max(greedy) + 1, greedy)
    return found[0], not exhausted[0]


def _assign_greedy(duties: list[ChargingDuty], inst: Instance, max_mct: int,
                   transfer_depletes: bool):
    """First-feasible-cheapest chaining: each duty goes to the truck whose
    added deadhead (plus acquisition when opening a new truck) is least,
    the lower truck index on ties.

    Returns (assignment, None) or, when it fails, (None, route): the MTEV
    route of the duty no truck could take, or of the first duty when a truck
    cannot get home.
    """
    trucks: list[_TruckState] = []
    deadhead: list[float] = []  # per truck, the deadhead driven so far
    assignment = []
    for duty in duties:
        options = []
        for t_idx, state in enumerate(trucks):
            nxt = _try_serve(state, duty, inst, transfer_depletes)
            if nxt is None or not _gets_home(nxt, inst):
                continue
            dead = deadhead[t_idx] + float(inst.dist[state.position, duty.tail])
            options.append((dead - deadhead[t_idx], t_idx, nxt, dead))
        if len(trucks) < max_mct:
            nxt = _try_serve(_fresh_truck(inst), duty, inst, transfer_depletes)
            if nxt is not None and _gets_home(nxt, inst):
                dead = float(inst.dist[0, duty.tail])
                options.append((inst.rho_c + dead, len(trucks), nxt, dead))
        if not options:
            return None, duty.mtev
        _, t_idx, nxt, dead = min(options, key=lambda o: (o[0], o[1]))
        if t_idx == len(trucks):
            trucks.append(nxt)
            deadhead.append(dead)
        else:
            trucks[t_idx] = nxt
            deadhead[t_idx] = dead
        assignment.append(t_idx)
    if not all(_gets_home(t, inst) for t in trucks):
        return None, duties[0].mtev
    return assignment, None


def _truck_route(duties: list[ChargingDuty], inst: Instance) -> list[int]:
    """Route nodes of one truck serving duties in order, depot to depot. A
    duty whose tail is where the truck stands adds no deadhead node."""
    nodes = [0]
    for duty in duties:
        if duty.tail != nodes[-1]:
            nodes.append(duty.tail)
        nodes.append(duty.head)
    if nodes[-1] != inst.depot_end:
        nodes.append(inst.depot_end)
    return nodes


def coordinate_exact(routes: list[Route], bdp_results: list[BdpResult],
                     inst: Instance, *,
                     node_budget: int = SolverConfig.assign_node_budget,
                     transfer_depletes: bool = True, fixed: float | None = None,
                     arcs: list[list[ChargingDuty]] | None = None
                     ) -> CoordinationResult | None:
    """Fewest-truck coordination by exhaustive search over per-route pattern
    choices and duty assignments.

    Branches over pattern combinations depth first, each route's patterns in
    their `BdpResult` order, (cardinality, mask). A route whose only pattern
    charges nothing adds no duties and no branch, so it gets no DFS level
    and no arrival times; every other route builds the duties of all the
    edges its patterns charge once, shared by its patterns. A prefix is
    pruned when the interval bound of its duties, read from the segment
    counters, reaches the best truck count found so far (or exceeds
    `inst.max_mct`), and each leaf's assignment search looks only for
    strictly fewer trucks. While it looks for one truck, a prefix is also
    pruned when two of its duties are not linked by `_follow_closure`: no
    single truck serves both. The search stops at the
    floor: one truck when some route cannot avoid charging, else none. The
    first plan found at the final count is kept; deadhead is not minimized.

    The plan is certified when its count is proven minimal: it equals the
    floor, or no assignment search ran out of `node_budget` and no branching
    route is a `fallback`. Returns None when no combination can be coordinated.

    `fixed` is `routing_cost(routes, inst)` and `arcs` is what
    `_charging_arcs` returns; a caller that keeps them per route passes
    them, and both are computed when omitted.
    """
    pattern_sets = [res.patterns for res in bdp_results]
    if any(not s for s in pattern_sets):
        return None
    if fixed is None:
        fixed = routing_cost(routes, inst)
    if arcs is None:
        arcs = _charging_arcs(routes, bdp_results, inst)
    branching = [r_idx for r_idx in range(len(routes)) if arcs[r_idx]]   # may charge
    ranked = sorted((d for r_idx in branching for d in arcs[r_idx]), key=duty_order)
    slots = {(d.mtev, d.edge): (1 << r, cover)     # rank bit and segment cover
             for r, (d, cover) in enumerate(zip(ranked, _segment_covers(ranked)))}
    levels = []                 # per branching route: (its duties' rank bits, cover) per pattern
    for r_idx in branching:
        options = []
        for mask in pattern_sets[r_idx]:
            added, cover = 0, 0
            while mask:
                low = mask & -mask
                bit, occupied = slots[r_idx, low.bit_length() - 1]
                added |= bit
                cover |= occupied
                mask ^= low
            options.append((added, cover))
        levels.append(options)
    floor = 1 if any(pattern_sets[r_idx][0] for r_idx in branching) else 0
    beat = [inst.max_mct + 1]   # truck count a plan must stay below
    best: list = [None]         # (duties, assignment)
    complete = [True]
    fits: list[list[int]] = []  # per level and option, once one truck is sought

    def dfs(level: int, selected: int, depth: tuple[int, ...], bound: int) -> None:
        """Extend the prefix whose duties are the rank bits `selected`, whose
        segment counters are `depth` and whose clique bound is `bound`,
        below `beat[0]`."""
        if level == len(levels):
            leaf = []
            while selected:     # lowest rank first: `duty_order`
                low = selected & -selected
                leaf.append(ranked[low.bit_length() - 1])
                selected ^= low
            found, done = _assign_exact(leaf, inst, beat[0] - 1, transfer_depletes,
                                        node_budget, bound)
            complete[0] = complete[0] and done
            if found is not None:
                beat[0], assignment = found
                best[0] = (leaf, assignment)
            return
        for k, (added, cover) in enumerate(levels[level]):
            if beat[0] <= floor:
                return
            grown, grown_bound = depth, bound
            if added:
                grown = _deepen(depth, cover)
                grown_bound = max(len(grown), 1)
            if grown_bound >= beat[0]:
                continue
            if added and beat[0] == 2:      # one truck: every pair must be linked
                if not fits:
                    fits.extend(_chain_fits(levels, ranked, inst))
                if (selected | added) & ~fits[level][k]:
                    continue
            dfs(level + 1, selected | added, grown, grown_bound)

    if floor < beat[0]:
        dfs(0, 0, (), 0)
    if best[0] is None:
        return None
    exhaustive = complete[0] and not any(bdp_results[r_idx].fallback for r_idx in branching)
    plan = CoordinationPlan(*best[0], certified=exhaustive or beat[0] == floor)
    return CoordinationResult(plan, fixed + inst.rho_c * beat[0])


def coordinate_heuristic(routes: list[Route], bdp_results: list[BdpResult],
                         inst: Instance, *,
                         max_retries: int = SolverConfig.heuristic_retries,
                         transfer_depletes: bool = True, fixed: float | None = None,
                         arcs: list[list[ChargingDuty]] | None = None
                         ) -> CoordinationResult | None:
    """Greedy coordination for scales beyond exhaustive search.

    Starts from the fewest-charging-arcs pattern of every route and assigns
    duties greedily; when a duty cannot be served, the offending route falls
    back to its next pattern in `BdpResult` order (cardinality, then mask
    value), with a bounded number of retries. A retry changes one route's
    pattern, so only that route's duties are selected again. `fixed` and
    `arcs` are as in `coordinate_exact`.
    """
    ordered = [res.patterns for res in bdp_results]
    if any(not s for s in ordered):
        return None
    if fixed is None:
        fixed = routing_cost(routes, inst)
    if arcs is None:
        arcs = _charging_arcs(routes, bdp_results, inst)
    idx = [0] * len(routes)

    def chosen_duties(r: int) -> list[ChargingDuty]:
        mask = ordered[r][idx[r]]
        return [d for d in arcs[r] if mask >> d.edge & 1]

    per_route = [chosen_duties(r) for r in range(len(routes))]
    for _ in range(max_retries + 1):
        duties = sorted((d for lst in per_route for d in lst), key=duty_order)
        assignment, failed_route = _assign_greedy(duties, inst, inst.max_mct,
                                                  transfer_depletes)
        if assignment is not None:
            plan = CoordinationPlan(duties, assignment, certified=False)
            return CoordinationResult(plan, fixed + inst.rho_c * plan.mct_count)
        if idx[failed_route] + 1 >= len(ordered[failed_route]):
            return None
        idx[failed_route] += 1
        per_route[failed_route] = chosen_duties(failed_route)
    return None


def assemble_solution(routes: list[Route], result: CoordinationResult,
                      inst: Instance, transfer_depletes: bool = True) -> Solution:
    """Full solution from MTEV routes plus a coordination result."""
    plan = result.plan
    sol = Solution.from_routes(routes)
    per_mct: list[list[ChargingDuty]] = [[] for _ in range(plan.mct_count)]
    for duty, t_idx in zip(plan.duties, plan.assignment):
        sol.charge_assign[duty.mtev][duty.edge] = t_idx
        per_mct[t_idx].append(duty)
    sol.mct_routes = [Route(t_idx, _truck_route(duties, inst))
                      for t_idx, duties in enumerate(per_mct)]
    return finalize_solution(sol, inst, transfer_depletes)


def summary_line(mtev_count: int, mct_count: int, cost: float) -> str:
    return f"E={mtev_count} C={mct_count} cost={cost:.2f}"
