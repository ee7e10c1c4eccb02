import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmcevrp import bdp, coordination, lns
from wmcevrp.config import SolverConfig
from wmcevrp.coordination import (
    ChargingDuty,
    CoordinationPlan,
    CoordinationResult,
    assemble_solution,
    coordinate_exact,
    coordinate_heuristic,
    duties_from_choice,
    mct_lower_bound,
    summary_line,
)
from wmcevrp.generator import generate_instance
from wmcevrp.model import Route, check_feasibility, make_route, mtev_arrival_times

from conftest import build_instance


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
        for pattern, _ in res.patterns:
            duties = duties_from_choice([route], [pattern], inst)
            assert {(d.tail, d.head) for d in duties} == \
                {route.edges()[e] for e in pattern.edges()}
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


class TestCoordinateExact:
    def test_no_charging_means_no_trucks(self):
        inst = build_instance([[0, 5, 5], [0, 0, 5], [0, 0, 0]], [1, 1], P=1000.0)
        routes = [make_route(0, [1], inst), make_route(1, [2], inst)]
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        out = coordinate_exact(routes, results, inst)
        assert out.plan.mct_count == 0
        assert out.plan.total_deadhead == 0.0
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
        assert len(out.choice) == 1
        assert out.choice[0].mask in results[0].masks()
        # selected duties are exactly the set bits of the chosen pattern
        chosen = out.choice[0]
        assert {d.edge for d in out.plan.duties} == set(chosen.edges())

    def test_infeasible_when_no_pattern_set(self):
        inst, route = chainable_two_duty_case()
        empty = bdp.BdpResult(bdp.RouteClass.INFEASIBLE, [])
        assert coordinate_exact([route], [empty], inst) is None

    def test_combo_cap_enforced(self):
        inst, route = chainable_two_duty_case()
        results = [bdp.enumerate_patterns(route, inst)]
        with pytest.raises(ValueError):
            coordinate_exact([route], results, inst, exact_cap=1)

    def test_fleet_cap_blocks_plans(self):
        inst, route = chainable_two_duty_case()
        inst.max_mct = 0
        results = [bdp.enumerate_patterns(route, inst)]
        assert coordinate_exact([route], results, inst) is None


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
        # the first leaf finds 2 trucks only through the greedy fallback and
        # a later leaf runs out of budget looking for 1, so 2 is not proven
        inst, routes = overlapping_pair_case()
        results = [bdp.enumerate_patterns(r, inst) for r in routes]
        out = coordinate_exact(routes, results, inst, node_budget=1)
        assert out.plan.mct_count == 2
        assert not out.plan.certified

    def test_count_at_the_floor_is_certified_despite_budget(self):
        inst, route = chainable_two_duty_case()
        results = [bdp.enumerate_patterns(route, inst)]
        out = coordinate_exact([route], results, inst, node_budget=1)
        assert out.plan.mct_count == 1
        assert out.plan.certified


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


class TestExactAgainstBruteForce:
    def test_count_is_minimum_over_all_pattern_combinations(self):
        compared = 0
        for inst, routes, results in generated_shells(150, 4100):
            out = coordinate_exact(routes, results, inst)
            counts = []
            for combo in itertools.product(*[[p for p, _ in r.patterns] for r in results]):
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
        found, complete = coordination._assign_exact(duties, inst, max_mct, True, 10**6,
                                                     mct_lower_bound(duties))
        assert complete
        expect = oracle_min_trucks(duties, inst, max_trucks=max_mct)
        assert (None if found is None else found[0]) == expect
        if found is not None:
            assert chains_feasible(duties, found[1], inst)


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
        expect = float(inst.dist[0, duty.tail]) + float(inst.dist[duty.head, inst.depot_end])
        assert out.plan.total_deadhead == pytest.approx(expect)

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
        plan = CoordinationPlan(
            duties=[duty], assignment=[0],
            mct_routes=[Route(0, [0, 2, inst.depot_end])],
            total_deadhead=11.0, certified=False,
        )
        fake = CoordinationResult([bdp.ChargePattern(4, 3)], plan, 0.0)
        sol = assemble_solution([route], fake, inst)
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
                    trucks += out.plan.mct_count
        assert trucks >= 20

    def test_zero_length_deadhead_between_distinct_nodes(self):
        # customers 1 and 2 share a location; the truck charges arcs (0,1)
        # and (2,3), so its route deadheads 1 -> 2 over distance zero
        core = [[0, 50, 50, 60], [0, 0, 0, 40], [0, 0, 0, 40], [0, 0, 0, 0]]
        inst = build_instance(core, [1, 1, 1], P=100.0, gamma=2.0, B=1000.0)
        route = make_route(0, [1, 2, 3], inst)
        pattern = bdp.ChargePattern.from_bitstring("1010")
        results = [bdp.BdpResult(bdp.RouteClass.ENUMERATED, [(pattern, 0.0)])]
        out = coordinate_heuristic([route], results, inst)
        assert out.plan.mct_routes[0].nodes == [0, 1, 2, 3, inst.depot_end]
        assert check_feasibility(assemble_solution([route], out, inst), inst).passed


def test_summary_line_format():
    assert summary_line(2, 1, 7215.0) == "E=2 C=1 cost=7215.00"
