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
them, and the search carries its selection as a bitmask of ranks.
`_successors` gives each duty the rank bits of the later duties a truck
leaving it reaches in time, and marks the duties a fresh truck reaches
late; `_chain_ends` reads both.

A second bound counts the ends of truck chains (`_chain_ends`). Every
truck serves one duty first and one last; a duty that no duty able to
share its plan can precede can only come first, and one that precedes
none can only come last. So a plan needs as many trucks as it has of
either kind, and a prefix needs those it chose plus, per remaining route,
its fewest. A duty that a fresh truck reaches late and that nothing
precedes can be served by no truck at all, and every pattern that charges
it is dropped; the chain ends are then counted again on the patterns
left. All of these bounds, and the floor the search stops at, are set
before the search starts.

`_try_serve` and `_gets_home` hold all of the truck arithmetic: deadhead
legs, arrival times and battery levels. `_successors` holds the only
other arrival tests, between two duties and from the start depot;
`_assign_greedy` sums the deadhead it ranks trucks by, and `_truck_route`
only lists nodes. Every truck leg a -> b is read as rows[a][b] from
`rows`, the caller's copy of `inst.dist` as nested lists of plain floats:
the same floats, without a numpy scalar read per leg. This layer does not
check its own plans;
`model.check_feasibility` re-derives the truck schedules from `inst.dist`
and is the single independent check of synchronization and truck energy.
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
    position: int        # at `inst.depot_end` the truck is parked and takes no duties
    ready: float
    battery: float


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
               rows: list[list[float]], transfer_depletes: bool):
    """Next truck state after deadheading to a duty's tail and co-traveling
    its arc, or None when the truck is parked, reaches the tail after the
    MTEV, stores less than the transfer there or ends the arc below zero.
    The truck is ready again when the MTEV reaches the head."""
    if state.position == inst.depot_end:
        return None
    leg = rows[state.position][duty.tail]
    if state.ready + leg > duty.start + EPS:
        return None
    battery = state.battery - inst.phi * (leg + duty.distance)
    if transfer_depletes:
        battery -= duty.transfer
    if battery < -EPS:
        return None
    if state.battery - inst.phi * leg < duty.transfer - EPS:
        return None
    return _TruckState(position=duty.head, ready=duty.end, battery=battery)


def _gets_home(state: _TruckState, inst: Instance, rows: list[list[float]]) -> bool:
    """Whether the truck is parked or its battery covers the deadhead home."""
    if state.position == inst.depot_end:
        return True
    leg = rows[state.position][inst.depot_end]
    return not state.battery - inst.phi * leg < -EPS


def _successors(ranked: list[ChargingDuty], inst: Instance,
                rows: list[list[float]]) -> tuple[list[int], int]:
    """Arrival tests of `_try_serve` over the duties of `ranked`, battery
    ignored. Returns (succ, late): per duty, the rank bits of the later
    duties that a truck leaving its head at its end reaches in time (none
    for a duty that ends at the return depot and parks its truck), and the
    rank bits of the duties that a fresh truck, ready at 0.0 at the start
    depot, reaches late."""
    tails = [b.tail for b in ranked]
    deadlines = [b.start + EPS for b in ranked]
    succ, late = [], 0
    for i, a in enumerate(ranked):
        if rows[0][tails[i]] > deadlines[i]:
            late |= 1 << i
        later = 0
        if a.head != inst.depot_end:
            row, ready = rows[a.head], a.end
            for j in range(i + 1, len(ranked)):
                if ready + row[tails[j]] <= deadlines[j]:
                    later |= 1 << j
        succ.append(later)
    return succ, late


def _search_levels(arcs: list[list[ChargingDuty]], pattern_sets: list[list[int]],
                   branching: list[int]):
    """The duties of the branching routes ranked in `duty_order`, and per
    branching route one level of `coordinate_exact`: per pattern, the rank
    bits of the duties it adds and their segment cover."""
    ranked = sorted((d for r_idx in branching for d in arcs[r_idx]), key=duty_order)
    slots = {(d.mtev, d.edge): (1 << r, cover)     # rank bit and segment cover
             for r, (d, cover) in enumerate(zip(ranked, _segment_covers(ranked)))}
    levels = []
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
    return ranked, levels


def _chain_ends(levels, succ: list[int], late: int) -> tuple[int, int, int]:
    """The ends of truck chains, from the successor table and the late
    duties of `_successors`.

    Duty a precedes duty b when b is a successor of a and the two can share
    a plan: some option in `levels` adds each, and they belong to different
    routes or some option of their route's level adds both. A truck serves
    every duty of its chain but the first straight after one that precedes
    it, so a duty that nothing precedes can only come first, and one that
    precedes nothing can only come last. Returns (unservable, first, last):
    the rank bits of the late duties that nothing precedes, which no truck
    can serve, and of the two kinds of chain ends. A plan needs at least as
    many trucks as it has of either kind. Dropping options only removes
    plans, so the bits stay sound for any subset of `levels`; marked on the
    subset, they count more chain ends.
    """
    unions = []                     # per level: the duties some option adds
    offered = 0
    for options in levels:
        union = 0
        for added, _ in options:
            union |= added
        unions.append(union)
        offered |= union
    partners = [0] * len(succ)      # per duty: the duties that can share its plan
    for options, union in zip(levels, unions):
        duties = union
        while duties:
            low = duties & -duties
            partners[low.bit_length() - 1] = offered & ~union
            duties ^= low
        for added, _ in options:
            duties = added
            while duties:
                low = duties & -duties
                partners[low.bit_length() - 1] |= added
                duties ^= low
    preceded = followed = 0
    for i, later in enumerate(succ):
        later &= partners[i]
        if later:
            preceded |= later
            followed |= 1 << i
    return late & ~preceded, ~preceded, ~followed


def _fewest(levels, ends: int) -> list[int]:
    """Per level, the fewest duties of the rank bits `ends` that one option
    per level from there on adds; one more entry, 0, past the last level."""
    fewest = [0]
    for options in reversed(levels):
        fewest.append(fewest[-1] + min((added & ends).bit_count() for added, _ in options))
    return fewest[::-1]


def _fresh_truck(inst: Instance) -> _TruckState:
    return _TruckState(0, 0.0, inst.B)


def _assign_exact(duties: list[ChargingDuty], inst: Instance, rows: list[list[float]],
                  max_mct: int, transfer_depletes: bool, node_budget: int, floor: int):
    """Fewest-truck duty assignment with at most max_mct trucks.

    Chains duties in start order, backtracking over existing-truck and
    new-truck choices. Once an assignment is found, the search looks only
    for one with strictly fewer trucks, and it stops when the count reaches
    `floor`, any lower bound on the trucks these duties need: no assignment
    can beat it. `coordinate_exact` passes the larger of the clique bound in
    its segment counters and the chain-end counts. Deadhead is not
    minimized: the first assignment found at the final count is kept.

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
            if all(_gets_home(t, inst, rows) for t in trucks):
                beat[0] = len(trucks)
                found[0] = (len(trucks), list(assignment))
            return
        duty = duties[idx]
        for t_idx, state in enumerate(trucks):
            nxt = _try_serve(state, duty, inst, rows, transfer_depletes)
            if nxt is None:
                continue
            trucks[t_idx] = nxt
            assignment[idx] = t_idx
            rec(idx + 1, trucks)
            trucks[t_idx] = state
        if len(trucks) < beat[0] - 1:
            nxt = _try_serve(fresh, duty, inst, rows, transfer_depletes)
            if nxt is not None:
                trucks.append(nxt)
                assignment[idx] = len(trucks) - 1
                rec(idx + 1, trucks)
                trucks.pop()

    rec(0, [])
    del rec                     # the closure refers to itself through its cell
    if exhausted[0] and found[0] is None:
        greedy, _ = _assign_greedy(duties, inst, rows, max_mct, transfer_depletes)
        if greedy is not None:
            found[0] = (max(greedy) + 1, greedy)
    return found[0], not exhausted[0]


def _assign_greedy(duties: list[ChargingDuty], inst: Instance, rows: list[list[float]],
                   max_mct: int, transfer_depletes: bool):
    """First-feasible-cheapest chaining: each duty goes to the truck whose
    added deadhead (plus acquisition when opening a new truck) is least,
    the lower truck index on ties.

    Returns (assignment, None) or, when it fails, (None, route): the MTEV
    route of the duty no truck could take.
    """
    trucks: list[_TruckState] = []
    deadhead: list[float] = []  # per truck, the deadhead driven so far
    assignment = []
    for duty in duties:
        options = []
        for t_idx, state in enumerate(trucks):
            nxt = _try_serve(state, duty, inst, rows, transfer_depletes)
            if nxt is None or not _gets_home(nxt, inst, rows):
                continue
            dead = deadhead[t_idx] + rows[state.position][duty.tail]
            options.append((dead - deadhead[t_idx], t_idx, nxt, dead))
        if len(trucks) < max_mct:
            nxt = _try_serve(_fresh_truck(inst), duty, inst, rows, transfer_depletes)
            if nxt is not None and _gets_home(nxt, inst, rows):
                dead = rows[0][duty.tail]
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
                     arcs: list[list[ChargingDuty]] | None = None,
                     rows: list[list[float]] | None = None
                     ) -> CoordinationResult | None:
    """Fewest-truck coordination by exhaustive search over per-route pattern
    choices and duty assignments.

    Branches over pattern combinations depth first, each route's patterns in
    their `BdpResult` order, (cardinality, mask). A route whose only pattern
    charges nothing adds no duties and no branch, so it gets no DFS level
    and no arrival times; every other route builds the duties of all the
    edges its patterns charge once, shared by its patterns, and their
    successor table once (`_successors`).

    Before the search, `_chain_ends` marks the chain ends and the duties no
    truck can serve; when it marks some, every pattern that charges one is
    dropped and the chain ends are marked again on the patterns left, which
    precede fewer duties. Then the bounds below are fixed. A prefix is
    pruned when its truck bound reaches the best truck count found so far
    (or exceeds `inst.max_mct`), and each leaf's assignment search looks
    only for strictly fewer trucks, from the leaf's bound on. The bound is
    the largest of the interval bound of the prefix's duties, read from
    the segment counters, and the two chain-end counts: the first (or
    last) duties the prefix chose plus, per remaining route, the fewest its
    patterns add (`_fewest`). The chain-end counts are compared first, one
    popcount each; only an option they leave standing grows the segment
    counters, and an option that adds no duty is held to its parent's
    bound instead, which a sibling's leaf may since have met. Every pruned
    prefix holds only leaves that cannot beat the best count, so the plan
    is the one the search would keep without these bounds. The search
    stops at the floor: the larger of
    one truck when some route cannot avoid charging, else none, and, when
    no branching route is a `fallback`, the two chain-end counts summed
    over all routes. The first plan found at the final count is kept;
    deadhead is not minimized.

    The plan is certified when its count is proven minimal: it equals the
    floor, or no assignment search ran out of `node_budget` and no branching
    route is a `fallback`. A fallback route offers its count DP's witness
    alone, so its patterns bound nothing beyond the search and never raise
    the floor. Returns None when no combination can be coordinated.

    `fixed` is `routing_cost(routes, inst)`, `arcs` is what
    `_charging_arcs` returns and `rows` is `inst.dist.tolist()`, the
    distance rows every truck leg is read from; a caller that already holds
    them passes them, and each is computed when omitted.
    """
    pattern_sets = [res.patterns for res in bdp_results]
    if any(not s for s in pattern_sets):
        return None
    if fixed is None:
        fixed = routing_cost(routes, inst)
    if arcs is None:
        arcs = _charging_arcs(routes, bdp_results, inst)
    if rows is None:
        rows = inst.dist.tolist()
    branching = [r_idx for r_idx in range(len(routes)) if arcs[r_idx]]   # may charge
    ranked, levels = _search_levels(arcs, pattern_sets, branching)
    succ, late = _successors(ranked, inst, rows)
    unservable, first, last = _chain_ends(levels, succ, late)
    if unservable:     # some pattern charges each of these, so the filter drops some
        levels = [[o for o in options if not o[0] & unservable] for options in levels]
        if not all(levels):
            return None
        # fewer options precede fewer duties: more chain ends
        _, first, last = _chain_ends(levels, succ, late)
    fewest_first, fewest_last = _fewest(levels, first), _fewest(levels, last)
    floor = 1 if any(options[0][0] for options in levels) else 0
    fallback = any(bdp_results[r_idx].fallback for r_idx in branching)
    if not fallback:
        floor = max(floor, fewest_first[0], fewest_last[0])
    beat = [inst.max_mct + 1]   # truck count a plan must stay below
    best: list = [None]         # (duties, assignment)
    complete = [True]

    def dfs(level: int, selected: int, depth: tuple[int, ...], bound: int) -> None:
        """Extend the prefix whose duties are the rank bits `selected`, whose
        segment counters are `depth` and whose truck bound is `bound`, below
        `beat[0]`."""
        if level == len(levels):
            leaf = []
            while selected:     # lowest rank first: `duty_order`
                low = selected & -selected
                leaf.append(ranked[low.bit_length() - 1])
                selected ^= low
            found, done = _assign_exact(leaf, inst, rows, beat[0] - 1, transfer_depletes,
                                        node_budget, bound)
            complete[0] = complete[0] and done
            if found is not None:
                beat[0], assignment = found
                best[0] = (leaf, assignment)
            return
        after_first, after_last = fewest_first[level + 1], fewest_last[level + 1]
        for added, cover in levels[level]:
            if beat[0] <= floor:
                return
            chosen = selected | added
            grown_bound = max((chosen & first).bit_count() + after_first,
                              (chosen & last).bit_count() + after_last)
            if grown_bound >= beat[0]:
                continue
            grown = depth
            if added:
                grown = _deepen(depth, cover)
                grown_bound = max(grown_bound, len(grown), 1)
            else:       # a sibling may have lowered beat[0] to the parent's bound
                grown_bound = max(grown_bound, bound)
            if grown_bound >= beat[0]:
                continue
            dfs(level + 1, chosen, grown, grown_bound)

    if floor < beat[0]:
        dfs(0, 0, (), 0)
    del dfs                     # the closure refers to itself through its cell
    if best[0] is None:
        return None
    exhaustive = complete[0] and not fallback
    plan = CoordinationPlan(*best[0], certified=exhaustive or beat[0] == floor)
    return CoordinationResult(plan, fixed + inst.rho_c * beat[0])


def coordinate_heuristic(routes: list[Route], bdp_results: list[BdpResult],
                         inst: Instance, *,
                         max_retries: int = SolverConfig.heuristic_retries,
                         transfer_depletes: bool = True, fixed: float | None = None,
                         arcs: list[list[ChargingDuty]] | None = None,
                         rows: list[list[float]] | None = None
                         ) -> CoordinationResult | None:
    """Greedy coordination for scales beyond exhaustive search.

    Starts from the fewest-charging-arcs pattern of every route and assigns
    duties greedily; when a duty cannot be served, the offending route falls
    back to its next pattern in `BdpResult` order (cardinality, then mask
    value), with a bounded number of retries. `fixed`, `arcs` and `rows`
    are as in `coordinate_exact`.
    """
    ordered = [res.patterns for res in bdp_results]
    if any(not s for s in ordered):
        return None
    if fixed is None:
        fixed = routing_cost(routes, inst)
    if arcs is None:
        arcs = _charging_arcs(routes, bdp_results, inst)
    if rows is None:
        rows = inst.dist.tolist()
    idx = [0] * len(routes)

    for _ in range(max_retries + 1):
        duties = sorted((d for r, lst in enumerate(arcs) for d in lst
                         if ordered[r][idx[r]] >> d.edge & 1), key=duty_order)
        assignment, failed_route = _assign_greedy(duties, inst, rows, inst.max_mct,
                                                  transfer_depletes)
        if assignment is not None:
            plan = CoordinationPlan(duties, assignment, certified=False)
            return CoordinationResult(plan, fixed + inst.rho_c * plan.mct_count)
        if idx[failed_route] + 1 >= len(ordered[failed_route]):
            return None
        idx[failed_route] += 1
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
