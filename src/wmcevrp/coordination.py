"""Charging coordination: pick one pattern per route and route the charging trucks.

Routing fixes the travel-energy and MTEV acquisition terms of the objective,
so this layer minimizes the MCT acquisition term, the truck count, and
nothing else. The exact search is count-first: it looks only for plans with
fewer trucks than the best so far and stops when no plan can use fewer.
Deadhead distance carries no cost and is not minimized; `total_deadhead` is
reported as a diagnostic only.

`_step` and `_home` hold the only truck arithmetic: deadhead legs, arrival
times and battery levels. This layer does not check its own plans;
`model.check_feasibility` re-derives the truck schedules and is the single
independent check of synchronization and truck energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .bdp import BdpResult, ChargePattern
from .model import (
    EPS,
    Instance,
    Route,
    Solution,
    finalize_solution,
    mtev_arrival_times,
    routing_cost,
)

DEFAULT_EXACT_CAP = 1_000_000
DEFAULT_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class ChargingDuty:
    """One charging obligation: an MCT must co-travel this arc with this MTEV."""

    mtev: int            # index of the MTEV route
    edge: int            # edge index within that route
    tail: int
    head: int
    start: float         # MTEV arrival time at the tail node
    end: float           # MTEV arrival time at the head node
    distance: float
    transfer: float      # energy delivered while co-traveling


@dataclass
class CoordinationPlan:
    duties: list[ChargingDuty]
    assignment: list[int]                    # duty index -> MCT index
    mct_routes: list[Route]
    total_deadhead: float
    certified: bool

    @property
    def mct_count(self) -> int:
        return len(self.mct_routes)


@dataclass
class CoordinationResult:
    choice: list[ChargePattern]              # one pattern per MTEV route, index aligned
    plan: CoordinationPlan
    cost: float


@dataclass
class _TruckState:
    position: int
    ready: float
    battery: float
    deadhead: float
    closed: bool         # parked at the return depot, takes no further duties


def _pattern_duties(r_idx: int, edges: list[tuple[int, int]], times: list[float],
                    pattern: ChargePattern, inst: Instance) -> list[ChargingDuty]:
    """The duties of one route's pattern, in edge order."""
    duties = []
    for e in pattern.edges():
        i, j = edges[e]
        c = float(inst.dist[i, j])
        duties.append(ChargingDuty(
            mtev=r_idx, edge=e, tail=i, head=j,
            start=times[e], end=times[e + 1],
            distance=c, transfer=inst.gamma * c,
        ))
    return duties


def _duty_order(duty: ChargingDuty) -> tuple[float, int, int]:
    return duty.start, duty.mtev, duty.edge


def duties_from_choice(routes: list[Route], choice: list[ChargePattern],
                       inst: Instance) -> list[ChargingDuty]:
    duties = []
    for r_idx, (route, pattern) in enumerate(zip(routes, choice)):
        duties += _pattern_duties(r_idx, route.edges(), mtev_arrival_times(route, inst),
                                  pattern, inst)
    duties.sort(key=_duty_order)
    return duties


def mct_lower_bound(duties: list[ChargingDuty]) -> int:
    """Interval-graph clique bound: max number of duties open at one instant.

    A truck may reach its next duty up to EPS late (`_try_serve`), so each
    duty occupies its truck over [start, end - 2*EPS); the second EPS absorbs
    rounding. Overlaps shorter than that are not counted, so the bound never
    exceeds the truck count of a feasible assignment.
    """
    if not duties:
        return 0
    events = []
    for d in duties:
        end = d.end - 2 * EPS
        if end > d.start:
            events.append((d.start, 1))
            events.append((end, -1))
    events.sort()
    cur = best = 0
    for _, delta in events:
        cur += delta
        best = max(best, cur)
    return max(best, 1)


def _step(state: _TruckState, duty: ChargingDuty, inst: Instance,
          transfer_depletes: bool) -> tuple[float, float, float, float]:
    """Deadhead to a duty's tail, then co-travel its arc, with no feasibility test.

    Returns (leg, arrive, stored, battery): the deadhead distance, the arrival
    time and stored energy at the tail, and the battery after the arc.
    """
    leg = float(inst.dist[state.position, duty.tail])
    battery = state.battery - inst.phi * (leg + duty.distance)
    if transfer_depletes:
        battery -= duty.transfer
    return leg, state.ready + leg, state.battery - inst.phi * leg, battery


def _after(state: _TruckState, duty: ChargingDuty, leg: float, battery: float,
           inst: Instance) -> _TruckState:
    """Truck state once `_step` is taken: ready again when the MTEV reaches the head."""
    return _TruckState(
        position=duty.head,
        ready=duty.end,
        battery=battery,
        deadhead=state.deadhead + leg,
        closed=duty.head == inst.depot_end,
    )


def _try_serve(state: _TruckState, duty: ChargingDuty, inst: Instance,
               transfer_depletes: bool):
    """Next truck state after deadheading to and co-traveling a duty arc, or None."""
    if state.closed:
        return None
    leg, arrive, stored, battery = _step(state, duty, inst, transfer_depletes)
    if arrive > duty.start + EPS:
        return None
    if battery < -EPS:
        return None
    if stored < duty.transfer - EPS:
        return None
    return _after(state, duty, leg, battery, inst)


def _home(state: _TruckState, inst: Instance) -> tuple[float, float]:
    """Deadhead distance to the return depot and the battery on arrival, unchecked."""
    leg = float(inst.dist[state.position, inst.depot_end])
    return leg, state.battery - inst.phi * leg


def _return_leg(state: _TruckState, inst: Instance) -> float | None:
    """Deadhead distance home, or None when the battery cannot cover it."""
    if state.closed:
        return 0.0
    leg, battery = _home(state, inst)
    if battery < -EPS:
        return None
    return leg


def _fresh_truck(inst: Instance) -> _TruckState:
    return _TruckState(position=0, ready=0.0, battery=inst.B, deadhead=0.0, closed=False)


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

    def rec(idx: int, trucks: list[_TruckState]) -> None:
        if exhausted[0] or beat[0] == floor or len(trucks) >= beat[0]:
            return
        nodes[0] += 1
        if nodes[0] > node_budget:
            exhausted[0] = True
            return
        if idx == len(duties):
            if all(_return_leg(t, inst) is not None for t in trucks):
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
            nxt = _try_serve(_fresh_truck(inst), duty, inst, transfer_depletes)
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
    assignment = []
    for duty in duties:
        options = []
        for t_idx, state in enumerate(trucks):
            nxt = _try_serve(state, duty, inst, transfer_depletes)
            if nxt is None or _return_leg(nxt, inst) is None:
                continue
            options.append((nxt.deadhead - state.deadhead, t_idx, nxt))
        if len(trucks) < max_mct:
            nxt = _try_serve(_fresh_truck(inst), duty, inst, transfer_depletes)
            if nxt is not None and _return_leg(nxt, inst) is not None:
                options.append((inst.rho_c + nxt.deadhead, len(trucks), nxt))
        if not options:
            return None, duty.mtev
        _, t_idx, nxt = min(options, key=lambda o: (o[0], o[1]))
        if t_idx == len(trucks):
            trucks.append(nxt)
        else:
            trucks[t_idx] = nxt
        assignment.append(t_idx)
    if any(_return_leg(t, inst) is None for t in trucks):
        return None, duties[0].mtev
    return assignment, None


def _truck_route(duties: list[ChargingDuty], inst: Instance) -> tuple[list[int], float]:
    """Route nodes and total deadhead of one truck serving duties in order,
    depot to depot. A duty whose tail is where the truck stands adds no
    deadhead node."""
    state = _fresh_truck(inst)
    nodes = [0]
    for duty in duties:
        # nodes and deadhead do not depend on depletion
        leg, _, _, battery = _step(state, duty, inst, True)
        if duty.tail != state.position:
            nodes.append(duty.tail)
        nodes.append(duty.head)
        state = _after(state, duty, leg, battery, inst)
    leg, _ = _home(state, inst)
    if state.position != inst.depot_end:
        nodes.append(inst.depot_end)
    return nodes, state.deadhead + leg


def _build_plan(duties: list[ChargingDuty], assignment: list[int],
                inst: Instance, certified: bool) -> CoordinationPlan:
    count = max(assignment) + 1 if assignment else 0
    mct_duties: list[list[ChargingDuty]] = [[] for _ in range(count)]
    for duty, t_idx in zip(duties, assignment):
        mct_duties[t_idx].append(duty)
    for lst in mct_duties:
        lst.sort(key=_duty_order)
    routes = []
    total_deadhead = 0.0
    for t_idx, lst in enumerate(mct_duties):
        nodes, deadhead = _truck_route(lst, inst)
        routes.append(Route(t_idx, nodes))
        total_deadhead += deadhead
    return CoordinationPlan(
        duties=list(duties),
        assignment=list(assignment),
        mct_routes=routes,
        total_deadhead=total_deadhead,
        certified=certified,
    )


def coordinate_exact(routes: list[Route], bdp_results: list[BdpResult],
                     inst: Instance, *,
                     exact_cap: int = DEFAULT_EXACT_CAP,
                     node_budget: int = DEFAULT_NODE_BUDGET,
                     transfer_depletes: bool = True) -> CoordinationResult | None:
    """Fewest-truck coordination by exhaustive search over per-route pattern
    choices and duty assignments.

    Branches over pattern combinations depth first, each route's patterns in
    their `BdpResult` order, (cardinality, mask). A route whose only pattern
    charges nothing adds no duties and no branch, so it gets no DFS level
    and no arrival times. A prefix is pruned when the interval bound of its
    duties reaches the best truck count found so far (or exceeds
    `inst.max_mct`), and each leaf's assignment search looks only for
    strictly fewer trucks. The search stops at the floor: one truck when
    some route cannot avoid charging, else none. The first plan found at the
    final count is kept; deadhead is not minimized.

    The plan is certified when its count is proven minimal: no assignment
    search ran out of `node_budget`, or the count equals the floor. Returns
    None when no combination can be coordinated.
    """
    pattern_sets = [res.patterns for res in bdp_results]
    if any(not s for s in pattern_sets):
        return None
    combos = prod(len(s) for s in pattern_sets)
    if combos > exact_cap:
        raise ValueError(f"{combos} combinations exceed the exact cap {exact_cap}")
    fixed = routing_cost(routes, inst)
    chosen = [patterns[0] for patterns in pattern_sets]
    levels = []                 # (route index, its patterns, their duties)
    for r_idx, (route, patterns) in enumerate(zip(routes, pattern_sets)):
        if len(patterns) == 1 and not patterns[0].mask:
            continue
        edges, times = route.edges(), mtev_arrival_times(route, inst)
        levels.append((r_idx, patterns,
                       [_pattern_duties(r_idx, edges, times, p, inst) for p in patterns]))
    floor = 1 if any(patterns[0].cardinality for _, patterns, _ in levels) else 0
    beat = [inst.max_mct + 1]   # truck count a plan must stay below
    best: list = [None]         # (chosen patterns, duties, assignment)
    complete = [True]

    def dfs(level: int, duties: list[ChargingDuty], bound: int) -> None:
        if beat[0] <= floor or bound >= beat[0]:
            return
        if level == len(levels):
            duties = sorted(duties, key=_duty_order)
            found, done = _assign_exact(duties, inst, beat[0] - 1, transfer_depletes,
                                        node_budget, bound)
            complete[0] = complete[0] and done
            if found is not None:
                beat[0], assignment = found
                best[0] = (list(chosen), duties, assignment)
            return
        r_idx, patterns, duty_sets = levels[level]
        for pattern, added in zip(patterns, duty_sets):
            chosen[r_idx] = pattern
            if added:
                grown = duties + added
                dfs(level + 1, grown, mct_lower_bound(grown))
            else:
                dfs(level + 1, duties, bound)

    dfs(0, [], 0)
    if best[0] is None:
        return None
    patterns, duties, assignment = best[0]
    plan = _build_plan(duties, assignment, inst, complete[0] or beat[0] == floor)
    return CoordinationResult(patterns, plan, fixed + inst.rho_c * beat[0])


def coordinate_heuristic(routes: list[Route], bdp_results: list[BdpResult],
                         inst: Instance, *,
                         max_retries: int = 50,
                         transfer_depletes: bool = True) -> CoordinationResult | None:
    """Greedy coordination for scales beyond exhaustive search.

    Starts from the fewest-charging-arcs pattern of every route and assigns
    duties greedily; when a duty cannot be served, the offending route falls
    back to its next pattern in `BdpResult` order (cardinality, then mask
    value), with a bounded number of retries.
    """
    ordered = [res.patterns for res in bdp_results]
    if any(not s for s in ordered):
        return None
    idx = [0] * len(routes)
    fixed = routing_cost(routes, inst)
    for _ in range(max_retries + 1):
        choice = [ordered[r][idx[r]] for r in range(len(routes))]
        duties = duties_from_choice(routes, choice, inst)
        assignment, failed_route = _assign_greedy(duties, inst, inst.max_mct,
                                                  transfer_depletes)
        if assignment is not None:
            plan = _build_plan(duties, assignment, inst, certified=False)
            return CoordinationResult(choice, plan, fixed + inst.rho_c * plan.mct_count)
        if idx[failed_route] + 1 >= len(ordered[failed_route]):
            return None
        idx[failed_route] += 1
    return None


def assemble_solution(routes: list[Route], result: CoordinationResult,
                      inst: Instance, transfer_depletes: bool = True) -> Solution:
    """Full solution from MTEV routes plus a coordination result."""
    sol = Solution.from_routes(routes)
    for d_idx, duty in enumerate(result.plan.duties):
        sol.charge_assign[duty.mtev][duty.edge] = result.plan.assignment[d_idx]
    sol.mct_routes = [r.copy() for r in result.plan.mct_routes]
    return finalize_solution(sol, inst, transfer_depletes)


def summary_line(mtev_count: int, mct_count: int, cost: float) -> str:
    return f"E={mtev_count} C={mct_count} cost={cost:.2f}"
