import gc
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmcevrp import bdp, coordination, lns
from wmcevrp.config import SolverConfig
from wmcevrp.coordination import (
    CoordinationPlan,
    CoordinationResult,
    assemble_solution,
    coordinate_exact,
    coordinate_heuristic,
    mct_lower_bound,
    summary_line,
)
from wmcevrp.generator import generate_instance
from wmcevrp.harness import run_seed
from wmcevrp.model import (
    EPS,
    ChargingDuty,
    Route,
    _duties_per_mct,
    check_feasibility,
    duty_order,
    make_route,
    mtev_arrival_times,
    route_duties,
    routing_cost,
)

from conftest import bits, build_instance


def duties_from_choice(routes, choice, inst):
    """The duties of one pattern per route, in `duty_order`."""
    duties = []
    for r_idx, (route, pattern) in enumerate(zip(routes, choice)):
        duties += route_duties(r_idx, route, mtev_arrival_times(route, inst),
                               pattern, inst)
    duties.sort(key=duty_order)
    return duties


def plan_masks(plan, route_count):
    """Per route, the mask of the edges its duties in the plan charge: the
    pattern coordination chose for it."""
    masks = [0] * route_count
    for d in plan.duties:
        masks[d.mtev] |= 1 << d.edge
    return masks


def chains_feasible(duties, assign, inst):
    """Simulate every truck's chain of duties in start order. A truck that
    reaches the return depot is parked there and takes no further duty."""
    for t in set(assign):
        pos, ready, battery = 0, 0.0, inst.B
        for d_idx, duty in enumerate(duties):
            if assign[d_idx] != t:
                continue
            if pos == inst.depot_end:
                return False
            leg = float(inst.dist[pos, duty.tail])
            if ready + leg > duty.start + 1e-9:
                return False
            battery -= inst.phi * (leg + duty.distance) + duty.transfer
            if battery < -1e-9:
                return False
            pos, ready = duty.head, duty.end
        if pos != inst.depot_end:
            battery -= inst.phi * float(inst.dist[pos, inst.depot_end])
            if battery < -1e-9:
                return False
    return True


def truck_partitions(m, max_trucks):
    """Every assignment of m duties to at most max_trucks trucks, up to
    relabeling: truck t first appears after trucks 0..t-1."""
    def grow(prefix, used):
        if len(prefix) == m:
            yield tuple(prefix)
            return
        for t in range(min(used + 1, max_trucks)):
            prefix.append(t)
            yield from grow(prefix, max(used, t + 1))
            prefix.pop()
    yield from grow([], 0)


def oracle_min_trucks(duties, inst, max_trucks=4):
    """Brute force over every duty-to-truck assignment, simulating each chain."""
    if not duties:
        return 0
    counts = [len(set(assign)) for assign in truck_partitions(len(duties), max_trucks)
              if chains_feasible(duties, assign, inst)]
    return min(counts, default=None)


def chainable_two_duty_case():
    """One route needing two charged arcs; both fit a single truck in sequence."""
    core = np.full((4, 4), 60.0)
    np.fill_diagonal(core, 0.0)
    inst = build_instance(core, [1, 1, 1], P=100.0, gamma=2.0, B=1000.0)
    route = make_route(0, [1, 2, 3], inst)
    return inst, route


class TestDutiesAndBounds:
    def test_duty_arcs_mirror_pattern_bits(self):
        inst, route = chainable_two_duty_case()
        res = bdp.enumerate_patterns(route, inst)
        for pattern in res.patterns:
            duties = duties_from_choice([route], [pattern], inst)
            assert {(d.tail, d.head) for d in duties} == \
                {arc for e, arc in enumerate(route.edges()) if pattern >> e & 1}
            times = mtev_arrival_times(route, inst)
            for d in duties:
                assert d.start == times[d.edge]
                assert d.end == times[d.edge + 1]
                assert d.transfer == inst.gamma * d.distance

    def test_clique_bound_counts_peak_overlap(self):
        mk = lambda s, e: ChargingDuty(0, 0, 0, 1, s, e, e - s, 1.0)
        assert mct_lower_bound([]) == 0
        assert mct_lower_bound([mk(0, 5)]) == 1
        assert mct_lower_bound([mk(0, 5), mk(5, 9)]) == 1      # touching is fine
        assert mct_lower_bound([mk(0, 5), mk(4, 9), mk(1, 2)]) == 2
        assert mct_lower_bound([mk(0, 5), mk(4, 9), mk(4.2, 4.8)]) == 3

    def test_clique_bound_allows_the_chaining_tolerance(self):
        # 0.1 + 0.2 ends 5.6e-17 after 0.3 starts, well inside the EPS by
        # which a truck may be late, so one truck can chain both duties
        mk = lambda s, e: ChargingDuty(0, 0, 0, 1, s, e, e - s, 1.0)
        assert mct_lower_bound([mk(0.0, 0.1 + 0.2), mk(0.3, 1.0)]) == 1


def brute_force_bound(duties):
    """The most duties occupying one instant: each duty occupies
    [start, end - 2*EPS), the peak is reached at some duty's start, and any
    duty at all needs one truck."""
    if not duties:
        return 0
    return max(max(sum(d.start <= s < d.end - 2 * EPS for d in duties)
                   for s in (d.start for d in duties)), 1)


# interval ends on a coarse grid touch one another; the offsets add
# overlaps shorter than, equal to and longer than the 2*EPS tolerance
_grid_times = st.builds(lambda k, off: k + off, st.integers(0, 12),
                        st.sampled_from([0.0, 0.5 * EPS, EPS, 2 * EPS, 3 * EPS, -EPS]))


class TestSegmentCoverBound:
    @settings(max_examples=300, deadline=None)
    @given(spans=st.lists(st.tuples(_grid_times, st.integers(0, 6),
                                    st.sampled_from([0.0, EPS, 1.5 * EPS, 2 * EPS, 4 * EPS])),
                          max_size=9))
    def test_bound_matches_brute_force(self, spans):
        duties = [ChargingDuty(k, 0, 0, 1, start, start + length + extra,
                               length + extra, 1.0)
                  for k, (start, length, extra) in enumerate(spans)]
        assert mct_lower_bound(duties) == brute_force_bound(duties)

    def test_deepen_counts_each_level(self):
        depth = coordination._deepen((), 0b0110)
        assert depth == (0b0110,)
        depth = coordination._deepen(depth, 0b0011)
        assert depth == (0b0111, 0b0010)
        assert coordination._deepen(depth, 0) is depth
        assert coordination._deepen(depth, 0b1010) == (0b1111, 0b0010, 0b0010)


def reference_exact(routes, results, inst, node_budget, transfer_depletes):
    """The exact coordination search as it was before segment covers,
    chain-end bounds and the unservable filter: every node that adds duties
    re-computes `mct_lower_bound` over the whole grown duty list. Returns the
    (duties, floor, max_mct, complete) of every assignment leaf in order and the
    (masks, duties, assignment, certified) of the kept plan."""
    leaves = []
    pattern_sets = [res.patterns for res in results]
    if any(not s for s in pattern_sets):
        return leaves, None
    chosen = [patterns[0] for patterns in pattern_sets]
    rows = inst.dist.tolist()
    levels = []
    for r_idx, patterns in enumerate(pattern_sets):
        if patterns == [0]:
            continue
        alone = [0] * len(routes)
        duty_sets = []
        for p in patterns:
            alone[r_idx] = p
            duty_sets.append(duties_from_choice(routes, alone, inst))
        levels.append((r_idx, patterns, duty_sets))
    floor = 1 if any(patterns[0] for _, patterns, _ in levels) else 0
    beat, best, complete = [inst.max_mct + 1], [None], [True]

    def dfs(level, duties, bound):
        if beat[0] <= floor or bound >= beat[0]:
            return
        if level == len(levels):
            duties = sorted(duties, key=lambda d: (d.start, d.mtev, d.edge))
            found, done = coordination._assign_exact(
                duties, inst, rows, beat[0] - 1, transfer_depletes, node_budget, bound)
            leaves.append((duties, bound, beat[0] - 1, done))
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
        return leaves, None
    return leaves, (*best[0], complete[0] or beat[0] == floor)


def random_routes(inst, rng, max_routes):
    """The customers in random order, cut into 1 to max_routes routes."""
    n = inst.n
    order = [int(u) for u in rng.permutation(n) + 1]
    k = int(rng.integers(1, min(n, max_routes) + 1))
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), k - 1, replace=False))
    parts = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    return [make_route(v, part, inst) for v, part in enumerate(parts)]


def chain_end_counts(routes, results, inst):
    """What `coordinate_exact` sets up before its search: the duties in rank
    order, the rank bits of the unservable ones and, unless some route has
    no pattern left without them, the chain-end floor's two sums over all
    routes (fewest first duties, fewest last duties), the chain ends marked
    on the patterns left."""
    arcs = coordination._charging_arcs(routes, results, inst)
    branching = [r_idx for r_idx in range(len(routes)) if arcs[r_idx]]
    ranked, levels = coordination._search_levels(arcs, [res.patterns for res in results],
                                                 branching)
    succ, late = coordination._successors(ranked, inst, inst.dist.tolist())
    unservable, first, last = coordination._chain_ends(levels, succ, late)
    levels = [[o for o in options if not o[0] & unservable] for options in levels]
    if not all(levels):
        return ranked, unservable, None
    _, first, last = coordination._chain_ends(levels, succ, late)
    return ranked, unservable, (coordination._fewest(levels, first)[0],
                                coordination._fewest(levels, last)[0])


def check_against_reference(routes, results, inst, node_budget, transfer_depletes):
    """`coordinate_exact` visits the reference's leaves, minus leaves that
    have no assignment within their cap, and keeps the same plan. A visited
    leaf has the reference's duties and cap and a floor at least the
    reference's. Certified may turn True only where a removed leaf ran out
    of node budget in the reference or the count meets the chain-end floor.
    Returns the number of removed leaves."""
    expect_leaves, expect = reference_exact(routes, results, inst, node_budget,
                                            transfer_depletes)
    leaves, assign = [], coordination._assign_exact

    def leaf(duties, inst, rows, max_mct, transfer_depletes, node_budget, floor):
        leaves.append((list(duties), max_mct, floor))
        return assign(duties, inst, rows, max_mct, transfer_depletes, node_budget, floor)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(coordination, "_assign_exact", leaf)
        out = coordinate_exact(routes, results, inst, node_budget=node_budget,
                               transfer_depletes=transfer_depletes)
    kept = iter(leaves)
    pending = next(kept, None)
    removed = []                # whether each removed leaf completed in the reference
    for duties, floor, max_mct, done in expect_leaves:
        if pending is not None and pending[:2] == (duties, max_mct):
            assert pending[2] >= floor
            pending = next(kept, None)
            continue
        found, _ = coordination._assign_exact(duties, inst, inst.dist.tolist(), max_mct,
                                              transfer_depletes, 10**9, floor)
        assert found is None
        removed.append(done)
    assert pending is None, "a leaf the reference never visited"
    if expect is None:
        assert out is None
        return len(removed)
    masks, duties, assignment, certified = expect
    assert plan_masks(out.plan, len(routes)) == masks
    assert out.plan.duties == duties
    assert out.plan.assignment == assignment
    if out.plan.certified != certified:
        _, _, counts = chain_end_counts(routes, results, inst)
        assert out.plan.certified
        assert not all(removed) or out.plan.mct_count == max(counts)
    return len(removed)


class TestIncrementalSearch:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10),
           P=st.sampled_from([300.0, 600.0, 900.0]), max_routes=st.integers(1, 4),
           node_budget=st.sampled_from([50, 5000]), transfer_depletes=st.booleans())
    def test_leaves_match_the_per_node_bound_search(self, seed, n, P, max_routes,
                                                    node_budget, transfer_depletes):
        inst = generate_instance(n, seed=seed, P=P)
        routes = random_routes(inst, np.random.default_rng(seed), max_routes)
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        check_against_reference(routes, results, inst, node_budget, transfer_depletes)

    @pytest.mark.parametrize("transfer_depletes", [True, False])
    def test_chain_end_floor_stops_at_the_first_leaf(self, transfer_depletes):
        """The first leaf finds two trucks, and the reference goes on to the
        8 remaining pattern combinations, none of which fits one truck.
        Every combination holds two duties that only a chain's first duty
        can be, so the floor is 2 before the search starts, and the search
        stops after the first leaf with the reference's plan."""
        inst = generate_instance(10, seed=161, P=900.0)
        routes = [make_route(0, [10, 3], inst),
                  make_route(1, [1, 6, 2, 9, 4, 7, 8, 5], inst)]
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        assert [len(res.patterns) for res in results] == [3, 8]
        assert chain_end_counts(routes, results, inst)[2] == (2, 1)
        assert check_against_reference(routes, results, inst, 5000, transfer_depletes) == 8
        leaves, expect = reference_exact(routes, results, inst, 5000, transfer_depletes)
        assert [max_mct for _, _, max_mct, _ in leaves] == [10] + [1] * 8
        out = coordinate_exact(routes, results, inst, node_budget=5000,
                               transfer_depletes=transfer_depletes)
        plan = out.plan
        assert (plan_masks(plan, len(routes)), plan.duties, plan.assignment,
                plan.certified) == expect


def ref_coordinate_exact(routes, results, inst, node_budget, transfer_depletes):
    """`coordinate_exact` as it was when each option grew its segment
    counters before any bound was compared. Calls `_assign_exact` through
    the module, so a spy on it sees these leaves too."""
    pattern_sets = [res.patterns for res in results]
    if any(not s for s in pattern_sets):
        return None
    fixed = routing_cost(routes, inst)
    arcs = coordination._charging_arcs(routes, results, inst)
    rows = inst.dist.tolist()
    branching = [r_idx for r_idx in range(len(routes)) if arcs[r_idx]]
    ranked, levels = coordination._search_levels(arcs, pattern_sets, branching)
    succ, late = coordination._successors(ranked, inst, rows)
    unservable, first, last = coordination._chain_ends(levels, succ, late)
    if unservable:
        levels = [[o for o in options if not o[0] & unservable] for options in levels]
        if not all(levels):
            return None
        _, first, last = coordination._chain_ends(levels, succ, late)
    fewest_first = coordination._fewest(levels, first)
    fewest_last = coordination._fewest(levels, last)
    floor = 1 if any(options[0][0] for options in levels) else 0
    fallback = any(results[r_idx].fallback for r_idx in branching)
    if not fallback:
        floor = max(floor, fewest_first[0], fewest_last[0])
    beat, best, complete = [inst.max_mct + 1], [None], [True]

    def dfs(level, selected, depth, bound):
        if level == len(levels):
            leaf = [ranked[r] for r in range(len(ranked)) if selected >> r & 1]
            found, done = coordination._assign_exact(leaf, inst, rows, beat[0] - 1,
                                                     transfer_depletes, node_budget, bound)
            complete[0] = complete[0] and done
            if found is not None:
                beat[0], assignment = found
                best[0] = (leaf, assignment)
            return
        for added, cover in levels[level]:
            if beat[0] <= floor:
                return
            grown, grown_bound = depth, bound
            if added:
                grown = coordination._deepen(depth, cover)
                grown_bound = max(len(grown), 1)
            chosen = selected | added
            grown_bound = max(grown_bound,
                              (chosen & first).bit_count() + fewest_first[level + 1],
                              (chosen & last).bit_count() + fewest_last[level + 1])
            if grown_bound >= beat[0]:
                continue
            dfs(level + 1, chosen, grown, grown_bound)

    if floor < beat[0]:
        dfs(0, 0, (), 0)
    if best[0] is None:
        return None
    plan = CoordinationPlan(*best[0], certified=(complete[0] and not fallback)
                            or beat[0] == floor)
    return CoordinationResult(plan, fixed + inst.rho_c * beat[0])


def compare_with_reference(routes, results, inst, node_budget, transfer_depletes):
    """`coordinate_exact` and `ref_coordinate_exact` give the same plan,
    `certified` and cost, through the same `_assign_exact` leaves (duties,
    cap and floor, in order). Returns the number of leaves."""
    leaves, assign = [], coordination._assign_exact

    def leaf(duties, inst, rows, max_mct, transfer_depletes, node_budget, floor):
        leaves[-1].append((list(duties), max_mct, floor))
        return assign(duties, inst, rows, max_mct, transfer_depletes, node_budget, floor)

    outs = []
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(coordination, "_assign_exact", leaf)
        for coordinate in (coordinate_exact, ref_coordinate_exact):
            leaves.append([])
            outs.append(outcome_of(coordinate(routes, results, inst, node_budget=node_budget,
                                              transfer_depletes=transfer_depletes)))
    assert outs[0] == outs[1]
    assert leaves[0] == leaves[1]
    return len(leaves[0])


def with_empty_option(results, rng):
    """`results` with the empty pattern inserted at a random place into the
    pattern list of some routes. The sweep never offers it beside another
    pattern, but coordination takes any list, and this places an option that
    adds no duty after siblings that add some."""
    out = []
    for res in results:
        patterns = list(res.patterns)
        if patterns and 0 not in patterns and rng.random() < 0.5:
            patterns.insert(int(rng.integers(len(patterns) + 1)), 0)
        out.append(bdp.BdpResult(res.classification, patterns, res.fallback))
    return out


class TestExactAgainstReference:
    """The search that compares the chain-end bounds before it grows the
    segment counters visits the leaves of the one that grew them first."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10),
           P=st.sampled_from([300.0, 600.0, 900.0]), max_routes=st.integers(1, 4),
           node_budget=st.sampled_from([1, 2, 3, SolverConfig.assign_node_budget]),
           transfer_depletes=st.booleans(),
           patterns=st.sampled_from(["enumerated", "random", "empty_option"]))
    def test_drawn_candidates(self, seed, n, P, max_routes, node_budget,
                              transfer_depletes, patterns):
        rng = np.random.default_rng(seed)
        inst = generate_instance(n, seed=seed, P=P)
        routes = random_routes(inst, rng, max_routes)
        if patterns == "enumerated":
            results = [bdp.enumerate_patterns(r, inst) for r in routes]
        else:
            results = random_pattern_sets(routes, rng)
            if patterns == "empty_option":
                results = with_empty_option(results, rng)
        compare_with_reference(routes, results, inst, node_budget, transfer_depletes)

    @pytest.mark.parametrize("node_budget", [1, 2, 3, SolverConfig.assign_node_budget])
    def test_initial_solutions_of_twenty_customers(self, node_budget):
        compared = leaves = 0
        for seed in range(12):
            inst = generate_instance(20, seed=300 + seed, P=float([900, 1500, 3000][seed % 3]))
            routes = lns.initial_solution(inst, run_seed(seed, 0)).mtev_routes
            results = [bdp.enumerate_patterns(r, inst) for r in routes]
            if not all(res.feasible for res in results):
                continue
            compared += 1
            leaves += compare_with_reference(routes, results, inst, node_budget, True)
        assert compared >= 8 and leaves >= compared

    def test_empty_option_after_the_parent_bound_is_met(self):
        """The duties of routes 0 and 1 overlap, so the prefix that charges
        both has a clique bound of 2, above the chain-end floor of 1. Route
        2's first option leads to a leaf of 2 trucks; its second option adds
        no duty, and its chain-end bounds stay at 1, but the parent's bound
        now meets the best count, so it is pruned: one leaf in all."""
        inst = generate_instance(6, seed=606, P=300.0)
        routes = [Route(r_idx, nodes)
                  for r_idx, nodes in enumerate([[0, 6, 7], [0, 5, 4, 7], [0, 1, 2, 3, 7]])]
        results = [bdp.BdpResult(bdp.RouteClass.ENUMERATED, patterns)
                   for patterns in ([2], [2, 3], [2, 0])]
        prefix = duties_from_choice(routes[:2], [2, 2], inst)
        assert mct_lower_bound(prefix) == 2
        assert chain_end_counts(routes, results, inst)[2] == (1, 1)
        assert compare_with_reference(routes, results, inst, 5000, True) == 1
        out = coordinate_exact(routes, results, inst)
        assert out.plan.mct_count == 2 and plan_masks(out.plan, 3) == [2, 2, 2]


def charged_duties(routes, inst):
    """The duties of every edge that some pattern of its route charges, in
    `duty_order`: what `coordinate_exact` ranks."""
    duties = []
    for r_idx, route in enumerate(routes):
        union = 0
        for p in bdp.enumerate_patterns(route, inst).patterns:
            union |= p
        duties += route_duties(r_idx, route, mtev_arrival_times(route, inst), union, inst)
    duties.sort(key=duty_order)
    return duties


class TestSuccessors:
    """The successor table and the late duties of `_successors` agree with
    `_try_serve` on when a truck arrives in time."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10),
           P=st.sampled_from([300.0, 600.0, 900.0]), max_routes=st.integers(1, 4),
           transfer_depletes=st.booleans())
    def test_table_matches_try_serve(self, seed, n, P, max_routes, transfer_depletes):
        """On generated instances, which break the triangle inequality, bit j
        of succ[i] is set exactly when a truck leaving duty i's head at its
        end can serve the later duty j, and the late duties are those that a
        fresh truck cannot serve, each with an unlimited battery. A one-truck
        assignment search opens one truck and tries only it on each later
        duty, so it visits at most one node per duty and one more: with that
        node budget it completes and finds what an unlimited one finds, on
        every subset of up to 8 of the duties."""
        rng = np.random.default_rng(seed)
        inst = generate_instance(n, seed=seed, P=P)
        duties = charged_duties(random_routes(inst, rng, max_routes), inst)
        rows = inst.dist.tolist()
        succ, late = coordination._successors(duties, inst, rows)
        assert len(succ) == len(duties)
        for i, a in enumerate(duties):
            after = coordination._TruckState(a.head, a.end, math.inf)
            expect = 0
            for j in range(i + 1, len(duties)):
                nxt = coordination._try_serve(after, duties[j], inst, rows, transfer_depletes)
                expect |= (nxt is not None) << j
            assert succ[i] == expect
        fresh = coordination._TruckState(0, 0.0, math.inf)
        assert late == sum(1 << r for r, d in enumerate(duties)
                           if coordination._try_serve(fresh, d, inst, rows,
                                                      transfer_depletes) is None)
        picked = sorted(rng.permutation(len(duties))[:8].tolist())
        for subset in range(1, 1 << len(picked)):
            leaf = [duties[picked[b]] for b in range(len(picked)) if subset >> b & 1]
            capped = coordination._assign_exact(leaf, inst, rows, 1, transfer_depletes,
                                                len(leaf) + 1, 1)
            found, _ = coordination._assign_exact(leaf, inst, rows, 1, transfer_depletes,
                                                  10**9, 1)
            assert capped == (found, True)

    @pytest.mark.parametrize("past", [False, True])
    def test_arrival_at_the_tolerance(self, past):
        """A truck may reach a tail EPS after the MTEV, and not one float
        later: duty a ends at node 1 at t = 2, duty b starts at node 2 at
        t = 10, and the leg 1 -> 2 takes the truck to b's tail at exactly
        10 + EPS, or at the next float. The fresh truck's leg 0 -> 2 lands
        on the same two times. Both trucks have an unlimited battery."""
        deadline = 10.0 + EPS
        leg = deadline - 2.0
        if past:
            leg = math.nextafter(leg, math.inf)
        arrival = 2.0 + leg
        assert arrival == (math.nextafter(deadline, math.inf) if past else deadline)
        inst = build_instance([[0, 2.0, arrival], [0, 0, leg], [0, 0, 0]], [1, 1])
        a = ChargingDuty(0, 0, 0, 1, 0.0, 2.0, 2.0, 1.0)
        b = ChargingDuty(1, 1, 2, 3, 10.0, 15.0, 5.0, 1.0)
        rows = inst.dist.tolist()
        assert coordination._successors([a, b], inst, rows) == ([0 if past else 2, 0],
                                                                2 if past else 0)
        after_a = coordination._TruckState(1, 2.0, math.inf)
        assert (coordination._try_serve(after_a, b, inst, rows, True) is None) == past
        fresh = coordination._TruckState(0, 0.0, math.inf)
        assert (coordination._try_serve(fresh, b, inst, rows, True) is None) == past


class TestCoordinateExact:
    def test_no_charging_means_no_trucks(self):
        inst = build_instance([[0, 5, 5], [0, 0, 5], [0, 0, 0]], [1, 1], P=1000.0)
        routes = [make_route(0, [1], inst), make_route(1, [2], inst)]
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        out = coordinate_exact(routes, results, inst)
        assert out.plan.mct_count == 0
        assert assemble_solution(routes, out, inst).mct_routes == []
        assert out.cost == pytest.approx(5 + 5 + 5 + 5 + 2 * 100)
        assert out.plan.certified

    def test_two_duties_one_truck(self):
        inst, route = chainable_two_duty_case()
        results = [bdp.enumerate_patterns(route, inst)]
        out = coordinate_exact([route], results, inst)
        assert out is not None
        assert out.plan.mct_count == 1
        duties = out.plan.duties
        assert len(duties) == 2
        assert oracle_min_trucks(duties, inst) == 1

    def test_exactly_one_pattern_per_route(self):
        inst, route = chainable_two_duty_case()
        results = [bdp.enumerate_patterns(route, inst)]
        out = coordinate_exact([route], results, inst)
        # the duties charge each edge at most once, and exactly the set bits
        # of one of the route's patterns
        assert len({d.edge for d in out.plan.duties}) == len(out.plan.duties)
        assert plan_masks(out.plan, 1)[0] in results[0].patterns

    def test_infeasible_when_no_pattern_set(self):
        inst, route = chainable_two_duty_case()
        empty = bdp.BdpResult(bdp.RouteClass.INFEASIBLE, [])
        assert coordinate_exact([route], [empty], inst) is None

    def test_fleet_cap_blocks_plans(self):
        inst, route = chainable_two_duty_case()
        inst.max_mct = 0
        results = [bdp.enumerate_patterns(route, inst)]
        assert coordinate_exact([route], results, inst) is None

    @pytest.fixture
    def spies(self, monkeypatch):
        """The duty list of every `_assign_exact` leaf and the nodes of every
        route whose arrival times coordination computes."""
        leaves, timed = [], []
        assign, arrivals = coordination._assign_exact, coordination.mtev_arrival_times

        def leaf(duties, *args, **kwargs):
            leaves.append(list(duties))
            return assign(duties, *args, **kwargs)

        def times(route, inst):
            timed.append(route.nodes)
            return arrivals(route, inst)

        monkeypatch.setattr(coordination, "_assign_exact", leaf)
        monkeypatch.setattr(coordination, "mtev_arrival_times", times)
        return leaves, timed

    def test_charge_free_routes_get_one_empty_leaf(self, spies):
        leaves, timed = spies
        inst = generate_instance(6, seed=71, P=1e5)
        routes = [make_route(0, [1, 2, 3], inst), make_route(1, [4, 5], inst),
                  make_route(2, [6], inst)]
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        assert all(res.classification is bdp.RouteClass.TRIVIAL_NO_CHARGE for res in results)
        out = coordinate_exact(routes, results, inst)
        assert leaves == [[]]
        assert timed == []
        assert out.plan.mct_count == 0
        assert out.plan.duties == [] and out.plan.assignment == []
        assert out.plan.certified
        assert plan_masks(out.plan, 3) == [0, 0, 0]
        assert out.cost == routing_cost(routes, inst)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_charge_free_route_beside_a_charging_one(self, spies, order):
        # customer 1 sits 10 from the depot and needs no charging; the route
        # over customers 2 and 3 drives 180 on a battery of 100
        leaves, timed = spies
        core = np.full((4, 4), 60.0)
        core[0, 1] = 10.0
        np.fill_diagonal(core, 0.0)
        inst = build_instance(core, [1, 1, 1], P=100.0, gamma=2.0, B=1000.0)
        pair = [[1], [2, 3]]
        routes = [make_route(i, pair[k], inst) for i, k in enumerate(order)]
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        free = order.index(0)
        assert results[free].patterns == [0]
        out = coordinate_exact(routes, results, inst)
        assert timed == [routes[1 - free].nodes]
        masks = plan_masks(out.plan, 2)
        assert masks[free] == 0 and masks[1 - free] in results[1 - free].patterns
        assert out.plan.mct_count == 1 and out.plan.certified
        assert {d.mtev for d in out.plan.duties} == {1 - free}
        assert leaves and all(d.mtev == 1 - free for duties in leaves for d in duties)
        assert check_feasibility(assemble_solution(routes, out, inst), inst).passed


def test_exact_search_leaves_no_reference_cycles():
    # the recursive closures of the route and assignment searches refer to
    # themselves; each call must break that cycle, or every call leaves
    # garbage for the cyclic collector
    inst, routes = overlapping_pair_case()
    results = [bdp.enumerate_patterns(r, inst) for r in routes]
    gc.collect()
    gc.disable()
    try:
        out = coordinate_exact(routes, results, inst)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert out.plan.mct_count == 2


def overlapping_pair_case():
    """Two routes whose only charging choices overlap in time or lie too far
    apart for one truck to chain: the fewest trucks is 2, the floor is 1."""
    core = [[0, 900, 900], [0, 0, 500], [0, 0, 0]]
    inst = build_instance(core, [1, 1], P=1000.0, gamma=2.0)
    routes = [make_route(0, [1], inst), make_route(1, [2], inst)]
    return inst, routes


class TestCertified:
    def test_complete_search_is_certified(self):
        inst, routes = overlapping_pair_case()
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        out = coordinate_exact(routes, results, inst)
        assert out.plan.mct_count == 2
        assert out.plan.certified

    def test_exhausted_node_budget_is_uncertified(self):
        # one route whose patterns charge edges {0, 1} and {0, 2, 3}, with a
        # floor of 1: at a node budget of 1 the 2 trucks come from the greedy
        # fallback and are not proven minimal; the full search proves them
        inst = generate_instance(3, 2, P=700.0, B=4000.0)
        routes = [Route(0, [0, 3, 1, 2, 4])]
        results = [bdp.enumerate_patterns(routes[0], inst)]
        assert results[0].patterns == [3, 13]
        assert chain_end_counts(routes, results, inst)[2] == (1, 1)
        out = coordinate_exact(routes, results, inst, node_budget=1)
        assert out.plan.mct_count == 2
        assert not out.plan.certified
        out = coordinate_exact(routes, results, inst)
        assert out.plan.mct_count == 2
        assert out.plan.certified

    def test_count_at_the_floor_is_certified_despite_budget(self):
        inst, route = chainable_two_duty_case()
        results = [bdp.enumerate_patterns(route, inst)]
        out = coordinate_exact([route], results, inst, node_budget=1)
        assert out.plan.mct_count == 1
        assert out.plan.certified
        # two duties that no truck can chain: each starts a chain, so the
        # floor is 2 and the greedy fallback's 2 trucks meet it
        inst, routes = overlapping_pair_case()
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        assert chain_end_counts(routes, results, inst)[2] == (2, 2)
        out = coordinate_exact(routes, results, inst, node_budget=1)
        assert out.plan.mct_count == 2
        assert out.plan.certified

    def test_fallback_route_above_the_floor_is_uncertified(self):
        # with max_edges = 1 the route offers the count DP's witness alone,
        # not its antichain: its 2 trucks exceed the floor of 1 and are not
        # proven minimal, and the full antichain needs 1
        inst = generate_instance(6, 11, P=1200.0)
        route = Route(0, [0, 3, 4, 2, 1, 6, 5, 7])
        witness = bdp.enumerate_patterns(route, inst, max_edges=1)
        assert witness.fallback
        out = coordinate_exact([route], [witness], inst)
        assert out.plan.mct_count == 2
        assert not out.plan.certified
        out = coordinate_exact([route], [bdp.enumerate_patterns(route, inst)], inst)
        assert out.plan.mct_count == 1
        assert out.plan.certified

    def test_fallback_route_raises_no_floor(self):
        # the long route's witness and its chain ends need 3 trucks, but the
        # full antichain needs 2: 3 is not proven minimal
        inst = generate_instance(8, 73, P=600.0)
        routes = [Route(0, [0, 5, 9]), Route(1, [0, 7, 9]),
                  Route(2, [0, 2, 8, 4, 3, 6, 1, 9])]
        witness = [bdp.enumerate_patterns(r, inst, max_edges=2) for r in routes]
        assert [res.fallback for res in witness] == [False, False, True]
        assert chain_end_counts(routes, witness, inst)[2] == (3, 3)
        out = coordinate_exact(routes, witness, inst)
        assert out.plan.mct_count == 3
        assert not out.plan.certified
        full = [bdp.enumerate_patterns(r, inst) for r in routes]
        assert coordinate_exact(routes, full, inst).plan.mct_count == 2

    def test_fallback_route_at_the_floor_is_certified(self):
        inst, route = chainable_two_duty_case()
        results = [bdp.enumerate_patterns(route, inst, max_edges=1)]
        assert results[0].fallback
        out = coordinate_exact([route], results, inst)
        assert out.plan.mct_count == 1
        assert out.plan.certified


def non_metric_case():
    """Routes on non-metric distances whose only minimal patterns cannot be
    coordinated: the second route's one minimal pattern, mask 4, charges
    arc 1 -> 4 from t = 506, and no truck deadheading on the direct arc
    0 -> 1 (889) gets there in time."""
    inst = generate_instance(3, 50098, P=700.0, B=20000.0)
    routes = [Route(0, [0, 3, 4]), Route(1, [0, 2, 1, 4])]
    return inst, routes, [bdp.enumerate_patterns(r, inst) for r in routes]


class TestNonMetricDeadheads:
    def test_superset_pattern_gives_a_plan(self):
        # with the superset mask 5 a second truck co-travels 0 -> 2 and
        # deadheads 2 -> 1, arriving at t = 506
        inst, routes, results = non_metric_case()
        assert results[1].patterns == [4]
        results[1] = bdp.BdpResult(bdp.RouteClass.ENUMERATED, [4, 5])
        out = coordinate_exact(routes, results, inst)
        assert out is not None and out.plan.mct_count == 2
        sol = assemble_solution(routes, out, inst)
        assert check_feasibility(sol, inst).passed

    @pytest.mark.xfail(strict=True, reason="trucks deadhead on the direct arc, so the "
                                           "minimal antichain is not exact on non-metric "
                                           "distances (ROADMAP: deadhead trucks on "
                                           "shortest paths)")
    def test_antichain_gives_a_plan(self):
        inst, routes, results = non_metric_case()
        assert coordinate_exact(routes, results, inst) is not None


def generated_shells(count, seed):
    """(instance, routes, pattern results) of the initial solutions of
    generated instances with 3..6 customers, as criterion 7 draws them."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        inst = generate_instance(int(rng.integers(3, 7)), seed=seed + k, P=900.0)
        routes = lns.initial_solution(inst, rng).mtev_routes
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        if all(r.feasible for r in results):
            yield inst, routes, results


def outcome_of(out):
    """Everything a coordination outcome holds; None when there is none."""
    if out is None:
        return None
    return out.cost, out.plan.duties, out.plan.assignment, out.plan.certified


class TestDistanceRows:
    @pytest.mark.parametrize("coordinate", [coordinate_exact, coordinate_heuristic])
    def test_passed_rows_give_the_omitted_plan(self, coordinate):
        """`rows` only passes what the coordinators read from `inst.dist`
        otherwise: the same plan, cost and `certified` either way, on
        generated shells and on the non-metric case with and without its
        superset pattern."""
        inst, routes, results = non_metric_case()
        superset = [results[0], bdp.BdpResult(bdp.RouteClass.ENUMERATED, [4, 5])]
        cases = [(inst, routes, results), (inst, routes, superset),
                 *generated_shells(60, 8300)]
        planned = 0
        for inst, routes, results in cases:
            omitted = coordinate(routes, results, inst)
            passed = coordinate(routes, results, inst, rows=inst.dist.tolist())
            assert outcome_of(passed) == outcome_of(omitted)
            planned += omitted is not None and omitted.plan.mct_count > 0
        assert planned >= 10


class TestExactAgainstBruteForce:
    def test_count_is_minimum_over_all_pattern_combinations(self):
        compared = 0
        for inst, routes, results in generated_shells(150, 4100):
            out = coordinate_exact(routes, results, inst)
            counts = []
            for combo in itertools.product(*[r.patterns for r in results]):
                duties = duties_from_choice(routes, list(combo), inst)
                cap = min(inst.max_mct, len(duties))
                found = oracle_min_trucks(duties, inst, max_trucks=cap)
                if found is not None:
                    counts.append(found)
            if not counts:
                assert out is None
                continue
            compared += 1
            assert out.plan.mct_count == min(counts)
            assert out.plan.certified
            sol = assemble_solution(routes, out, inst)
            assert check_feasibility(sol, inst).passed
        assert compared >= 80

    def test_choice_names_the_plan_duties(self):
        # exact and heuristic plans alike serve, per route, the duties of one
        # of its patterns, and those of no other edge
        branched = {coordinate_exact: 0, coordinate_heuristic: 0}
        for inst, routes, results in generated_shells(150, 4100):
            for coordinate in branched:
                out = coordinate(routes, results, inst)
                if out is None:
                    continue
                masks = plan_masks(out.plan, len(routes))
                assert all(m in res.patterns for m, res in zip(masks, results))
                assert out.plan.duties == duties_from_choice(routes, masks, inst)
                branched[coordinate] += any(m != res.patterns[0]
                                            for m, res in zip(masks, results))
        assert branched[coordinate_exact] > 0

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 50), B=st.sampled_from([2500.0, 6000.0, 20000.0]),
           max_mct=st.integers(1, 4),
           arcs=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 6),
                                   st.floats(0.0, 4000.0)),
                         min_size=1, max_size=6))
    def test_assign_exact_matches_brute_force(self, seed, B, max_mct, arcs):
        inst = generate_instance(5, seed=seed, B=B)
        duties = []
        for k, (tail, head, start) in enumerate(arcs):
            if head == tail:
                continue
            c = float(inst.dist[tail, head])
            duties.append(ChargingDuty(mtev=k, edge=0, tail=tail, head=head,
                                       start=start, end=start + c,
                                       distance=c, transfer=inst.gamma * c))
        duties.sort(key=lambda d: (d.start, d.mtev, d.edge))
        found, complete = coordination._assign_exact(duties, inst, inst.dist.tolist(),
                                                     max_mct, True, 10**6,
                                                     mct_lower_bound(duties))
        assert complete
        expect = oracle_min_trucks(duties, inst, max_trucks=max_mct)
        assert (None if found is None else found[0]) == expect
        if found is not None:
            assert chains_feasible(duties, found[1], inst)


def random_pattern_sets(routes, rng):
    """Per route, one to three random masks of one or two charged edges,
    feasible or not, in `BdpResult` order: coordination reads only the
    masks."""
    results = []
    for route in routes:
        m = len(route.nodes) - 1
        masks = set()
        for _ in range(int(rng.integers(1, 4))):
            edges = rng.choice(m, size=min(m, int(rng.integers(1, 3))), replace=False)
            masks.add(sum(1 << int(e) for e in edges))
        results.append(bdp.BdpResult(bdp.RouteClass.ENUMERATED,
                                     sorted(masks, key=lambda p: (p.bit_count(), p))))
    return results


class TestChainEnds:
    """The chain-end sums never exceed the fewest trucks of any pattern
    combination, and no feasible assignment serves a duty marked
    unservable."""

    @staticmethod
    def check_sound(routes, results, inst):
        ranked, unservable, counts = chain_end_counts(routes, results, inst)
        rank = {(d.mtev, d.edge): r for r, d in enumerate(ranked)}
        fewest = None
        for combo in itertools.product(*[res.patterns for res in results]):
            duties = duties_from_choice(routes, list(combo), inst)
            trucks = oracle_min_trucks(duties, inst, max_trucks=len(duties))
            if any(unservable >> rank[d.mtev, d.edge] & 1 for d in duties):
                assert trucks is None
            if trucks is not None:
                fewest = trucks if fewest is None else min(fewest, trucks)
        if counts is None:
            assert fewest is None
        elif fewest is not None:
            assert max(counts) <= fewest
        return unservable, counts

    def test_generated_shells(self):
        bounded = 0
        for inst, routes, results in generated_shells(80, 7100):
            _, counts = self.check_sound(routes, results, inst)
            bounded += counts is not None and max(counts) >= 2
        assert bounded >= 5

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6),
           P=st.sampled_from([300.0, 900.0]), max_routes=st.integers(1, 3))
    def test_random_non_metric_route_sets(self, seed, n, P, max_routes):
        rng = np.random.default_rng(seed)
        inst = generate_instance(n, seed=seed, P=P)
        routes = random_routes(inst, rng, max_routes)
        self.check_sound(routes, random_pattern_sets(routes, rng), inst)


class TestFilteredChainEnds:
    def test_chain_ends_are_marked_again_on_the_patterns_left(self):
        """A call of a small_exact-shaped run (n = 20): three routes branch,
        with 6, 7 and 2 patterns over 15 duties, and two duties no truck can
        serve. Chain starts marked on every pattern sum to 1 over the
        patterns left; marked again on those, they sum to 2, the plan's
        count, so the plan is certified even where a node budget of 3 cuts
        an assignment search short."""
        inst = generate_instance(20, 1004)
        nodes = [[0, 13, 3, 6, 15, 4, 21], [0, 7, 14, 8, 5, 10, 2, 21],
                 [0, 19, 20, 11, 9, 12, 21], [0, 17, 18, 1, 21], [0, 16, 21]]
        routes = [Route(r_idx, r_nodes) for r_idx, r_nodes in enumerate(nodes)]
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        assert [res.patterns for res in results] == [
            [0], [2, 4, 8, 16, 32, 65], [1, 6, 10, 12, 18, 20, 36], [0], [1, 2]]
        arcs = coordination._charging_arcs(routes, results, inst)
        ranked, levels = coordination._search_levels(
            arcs, [res.patterns for res in results], [1, 2, 4])
        succ, late = coordination._successors(ranked, inst, inst.dist.tolist())
        unservable, first, _ = coordination._chain_ends(levels, succ, late)
        left = [[o for o in options if not o[0] & unservable] for options in levels]
        assert len(ranked) == 15 and unservable.bit_count() == 2
        assert [len(options) for options in left] == [4, 7, 2]
        assert coordination._fewest(left, first)[0] == 1
        assert chain_end_counts(routes, results, inst)[2] == (2, 0)
        for node_budget in (1, 3, SolverConfig.assign_node_budget):
            out = coordinate_exact(routes, results, inst, node_budget=node_budget)
            assert out.plan.mct_count == 2 and out.plan.certified


class TestLoneRoutes:
    def test_chain_end_floor_certifies_the_first_plan(self, monkeypatch):
        """Six routes [0, u, n+1] of the n = 100 initial solution each charge
        one of their two edges. No truck can serve a duty of one of them
        straight after a duty of another, so every duty both starts and ends
        a truck's chain: the chain-end floor is 6 by either count, and the
        first plan meets it."""
        inst = generate_instance(100, 2)
        routes = lns.initial_solution(inst, run_seed(2, 0)).mtev_routes
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        charging = [(r.nodes, res.patterns) for r, res in zip(routes, results) if res.charged()]
        assert len(charging) == 6
        assert all(len(nodes) == 3 and patterns == [1, 2] for nodes, patterns in charging)
        assert chain_end_counts(routes, results, inst)[2] == (6, 6)
        leaves, assign = [], coordination._assign_exact

        def leaf(duties, *args):
            leaves.append(list(duties))
            return assign(duties, *args)

        monkeypatch.setattr(coordination, "_assign_exact", leaf)
        out = coordinate_exact(routes, results, inst)
        assert out.plan.mct_count == 6 and out.plan.certified
        # without the chain-end bounds the search visits 58 of the 2^6
        # combinations
        assert len(leaves) == 1
        assert check_feasibility(assemble_solution(routes, out, inst), inst).passed


# ---------------------------------------------------------------------------
# the assignments against the truck arithmetic that summed every deadhead
# ---------------------------------------------------------------------------

@dataclass
class RefTruck:
    position: int
    ready: float
    battery: float
    deadhead: float
    closed: bool


def ref_try_serve(state, duty, inst, transfer_depletes):
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
    return RefTruck(duty.head, duty.end, battery, state.deadhead + leg,
                    duty.head == inst.depot_end)


def ref_return_leg(state, inst):
    if state.closed:
        return 0.0
    leg = float(inst.dist[state.position, inst.depot_end])
    if state.battery - inst.phi * leg < -EPS:
        return None
    return leg


def ref_assign_exact(duties, inst, max_mct, transfer_depletes, node_budget, floor):
    """`_assign_exact` as it was when every truck state carried its deadhead."""
    if not duties:
        return (0, []), True
    if floor > max_mct:
        return None, True
    beat, found, nodes, exhausted = [max_mct + 1], [None], [0], [False]
    assignment = [0] * len(duties)
    fresh = RefTruck(0, 0.0, inst.B, 0.0, False)

    def rec(idx, trucks):
        if exhausted[0] or beat[0] == floor or len(trucks) >= beat[0]:
            return
        nodes[0] += 1
        if nodes[0] > node_budget:
            exhausted[0] = True
            return
        if idx == len(duties):
            if all(ref_return_leg(t, inst) is not None for t in trucks):
                beat[0] = len(trucks)
                found[0] = (len(trucks), list(assignment))
            return
        duty = duties[idx]
        for t_idx, state in enumerate(trucks):
            nxt = ref_try_serve(state, duty, inst, transfer_depletes)
            if nxt is None:
                continue
            trucks[t_idx] = nxt
            assignment[idx] = t_idx
            rec(idx + 1, trucks)
            trucks[t_idx] = state
        if len(trucks) < beat[0] - 1:
            nxt = ref_try_serve(fresh, duty, inst, transfer_depletes)
            if nxt is not None:
                trucks.append(nxt)
                assignment[idx] = len(trucks) - 1
                rec(idx + 1, trucks)
                trucks.pop()

    rec(0, [])
    if exhausted[0] and found[0] is None:
        greedy, _ = ref_assign_greedy(duties, inst, max_mct, transfer_depletes)
        if greedy is not None:
            found[0] = (max(greedy) + 1, greedy)
    return found[0], not exhausted[0]


def ref_assign_greedy(duties, inst, max_mct, transfer_depletes):
    """`_assign_greedy` as it was when every truck state carried its deadhead."""
    trucks, assignment = [], []
    for duty in duties:
        options = []
        for t_idx, state in enumerate(trucks):
            nxt = ref_try_serve(state, duty, inst, transfer_depletes)
            if nxt is None or ref_return_leg(nxt, inst) is None:
                continue
            options.append((nxt.deadhead - state.deadhead, t_idx, nxt))
        if len(trucks) < max_mct:
            nxt = ref_try_serve(RefTruck(0, 0.0, inst.B, 0.0, False), duty, inst,
                                transfer_depletes)
            if nxt is not None and ref_return_leg(nxt, inst) is not None:
                options.append((inst.rho_c + nxt.deadhead, len(trucks), nxt))
        if not options:
            return None, duty.mtev
        _, t_idx, nxt = min(options, key=lambda o: (o[0], o[1]))
        if t_idx == len(trucks):
            trucks.append(nxt)
        else:
            trucks[t_idx] = nxt
        assignment.append(t_idx)
    if any(ref_return_leg(t, inst) is None for t in trucks):
        return None, duties[0].mtev
    return assignment, None


class TestAssignmentsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), top=st.sampled_from([3, 0]),
           B=st.sampled_from([10.0, 40.0, 2500.0, 20000.0]), max_mct=st.integers(0, 4),
           node_budget=st.sampled_from([2, 30, 10**5]), transfer_depletes=st.booleans(),
           count=st.integers(0, 9))
    def test_same_assignments(self, seed, n, top, B, max_mct, node_budget,
                              transfer_depletes, count):
        """Generated duty lists on tied integer distances (top 3, where
        deadhead ranks tie) or generated float ones (top 0); some duties
        end at the return depot, and small batteries and node budgets reach
        every failure and the greedy fallback."""
        rng = np.random.default_rng(seed)
        if top:
            core = rng.integers(1, top + 1, size=(n + 1, n + 1))
            inst = build_instance(core, [1] * n, B=B, max_mct=max_mct)
            horizon = 4 * top
        else:
            inst = generate_instance(n, seed=seed % 10**6, B=B * 50, max_mct=max_mct)
            horizon = 4000
        duties = []
        for k in range(count):
            tail = int(rng.integers(0, n + 1))
            head = int(rng.integers(1, n + 2))
            if head == tail:
                continue
            start = float(rng.integers(0, horizon))
            c = float(inst.dist[tail, head])
            duties.append(ChargingDuty(mtev=k % 3, edge=k, tail=tail, head=head,
                                       start=start, end=start + c,
                                       distance=c, transfer=inst.gamma * c))
        duties.sort(key=duty_order)
        rows = inst.dist.tolist()
        assert (coordination._assign_greedy(duties, inst, rows, max_mct, transfer_depletes)
                == ref_assign_greedy(duties, inst, max_mct, transfer_depletes))
        floor = mct_lower_bound(duties)
        assert (coordination._assign_exact(duties, inst, rows, max_mct, transfer_depletes,
                                           node_budget, floor)
                == ref_assign_exact(duties, inst, max_mct, transfer_depletes,
                                    node_budget, floor))


class TestCoordinateHeuristic:
    def test_single_duty_single_truck(self):
        inst = build_instance([[0, 40, 40], [0, 0, 40], [0, 0, 0]],
                              [1, 1], P=100.0, gamma=2.0)
        route = make_route(0, [1, 2], inst)        # length 120 > P, one charge
        results = [bdp.enumerate_patterns(route, inst)]
        out = coordinate_heuristic([route], results, inst)
        assert out is not None
        assert out.plan.mct_count == 1
        duty = out.plan.duties[0]
        assert duty.tail == 0           # the truck starts at the tail: no deadhead node
        sol = assemble_solution([route], out, inst)
        assert [r.nodes for r in sol.mct_routes] == [[0, duty.head, inst.depot_end]]

    def test_zero_cardinality_matches_exact(self):
        inst = build_instance([[0, 5, 5], [0, 0, 5], [0, 0, 0]], [1, 1], P=1000.0)
        routes = [make_route(0, [1], inst), make_route(1, [2], inst)]
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        exact = coordinate_exact(routes, results, inst)
        heur = coordinate_heuristic(routes, results, inst)
        assert heur.cost == exact.cost
        assert heur.plan.mct_count == exact.plan.mct_count == 0

    def test_never_beats_exact(self):
        rng = np.random.default_rng(17)
        checked = 0
        for k in range(40):
            inst = generate_instance(int(rng.integers(3, 7)), seed=6000 + k, P=900.0)
            shell = lns.initial_solution(inst, rng)
            routes = shell.mtev_routes
            results = [bdp.enumerate_patterns(r, inst) for r in routes]
            if any(not r.feasible for r in results):
                continue
            exact = coordinate_exact(routes, results, inst)
            heur = coordinate_heuristic(routes, results, inst)
            if exact is None:
                assert heur is None
                continue
            if heur is not None:
                checked += 1
                assert exact.cost <= heur.cost + 1e-9
        assert checked >= 10


class TestValidateSync:
    """The independent checker catches truck plans that break synchronization
    or truck energy; coordination does not check its own plans."""

    def test_exact_plans_always_validate(self):
        rng = np.random.default_rng(23)
        validated = 0
        for k in range(25):
            inst = generate_instance(int(rng.integers(3, 7)), seed=8000 + k, P=900.0)
            shell = lns.initial_solution(inst, rng)
            routes = shell.mtev_routes
            results = [bdp.enumerate_patterns(r, inst) for r in routes]
            if any(not r.feasible for r in results):
                continue
            out = coordinate_exact(routes, results, inst)
            if out is None:
                continue
            sol = assemble_solution(routes, out, inst)
            assert check_feasibility(sol, inst).passed
            assert out.plan.mct_count >= mct_lower_bound(out.plan.duties)
            assert sol.total_cost == pytest.approx(out.cost)
            validated += 1
        assert validated >= 10

    def _late_plan(self):
        # truck cuts 0->2 across 11 units but the vehicle reaches node 2 at 10
        inst = build_instance([[0, 5, 11], [0, 0, 5], [0, 0, 0]], [1, 1], P=1000.0)
        route = make_route(0, [1, 2], inst)
        times = mtev_arrival_times(route, inst)
        duty = ChargingDuty(mtev=0, edge=2, tail=2, head=inst.depot_end,
                            start=times[2], end=times[3],
                            distance=float(inst.dist[2, inst.depot_end]),
                            transfer=inst.gamma * float(inst.dist[2, inst.depot_end]))
        plan = CoordinationPlan(duties=[duty], assignment=[0], certified=False)
        sol = assemble_solution([route], CoordinationResult(plan, 0.0), inst)
        assert [r.nodes for r in sol.mct_routes] == [[0, 2, inst.depot_end]]
        return inst, sol

    def test_late_truck_reported(self):
        inst, sol = self._late_plan()
        report = check_feasibility(sol, inst)
        assert not report.passed
        sync = [v for v in report.violations if v.family == "sync"]
        assert sync and sync[0].magnitude == pytest.approx(1.0)

    def test_transfer_beyond_battery_reported(self):
        inst, sol = self._late_plan()
        inst.B = 1.0
        report = check_feasibility(sol, inst)
        assert "energy-mct" in report.families()


class TestPlanJsonTrace:
    """Exact and heuristic plans pass the checker under either depletion
    setting, and truck routes list a deadhead node even over distance zero."""

    @pytest.mark.parametrize("transfer_depletes", [True, False])
    def test_generated_exact_and_heuristic_plans(self, transfer_depletes):
        trucks = 0
        for inst, routes, results in generated_shells(40, 5300):
            for coordinate in (coordinate_exact, coordinate_heuristic):
                out = coordinate(routes, results, inst, transfer_depletes=transfer_depletes)
                if out is not None:
                    sol = assemble_solution(routes, out, inst, transfer_depletes)
                    assert check_feasibility(sol, inst, transfer_depletes).passed
                    # the checker rebuilds each truck's duties, in the same order
                    per_mct, bad = _duties_per_mct(sol, inst, sol.mtev_times)
                    assert bad == []
                    assert per_mct == [
                        [d for d, t in zip(out.plan.duties, out.plan.assignment) if t == t_idx]
                        for t_idx in range(out.plan.mct_count)]
                    trucks += out.plan.mct_count
        assert trucks >= 20

    def test_zero_length_deadhead_between_distinct_nodes(self):
        # customers 1 and 2 share a location; the truck charges arcs (0,1)
        # and (2,3), so its route deadheads 1 -> 2 over distance zero
        core = [[0, 50, 50, 60], [0, 0, 0, 40], [0, 0, 0, 40], [0, 0, 0, 0]]
        inst = build_instance(core, [1, 1, 1], P=100.0, gamma=2.0, B=1000.0)
        route = make_route(0, [1, 2, 3], inst)
        results = [bdp.BdpResult(bdp.RouteClass.ENUMERATED, [bits("1010")])]
        out = coordinate_heuristic([route], results, inst)
        sol = assemble_solution([route], out, inst)
        assert [r.nodes for r in sol.mct_routes] == [[0, 1, 2, 3, inst.depot_end]]
        assert check_feasibility(sol, inst).passed


def test_summary_line_format():
    assert summary_line(2, 1, 7215.0) == "E=2 C=1 cost=7215.00"
