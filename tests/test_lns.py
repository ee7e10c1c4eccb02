import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from wmcevrp import bdp, coordination, harness, lns
from wmcevrp.config import SolverConfig, score_cap
from wmcevrp.generator import generate_instance
from wmcevrp.model import (
    InfeasibleInstanceError,
    Instance,
    Route,
    Solution,
    check_feasibility,
    make_route,
    mtev_arrival_times,
    route_duties,
)
from wmcevrp.oracle import solve_exact

from conftest import build_instance


def rng_at(seed):
    return np.random.default_rng(seed)


def served_customers(sol):
    return sorted(u for r in sol.mtev_routes for u in r.interior)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class TestInitialSolution:
    def test_single_reachable_customer(self, one_customer):
        sol = lns.initial_solution(one_customer, rng_at(0))
        assert [r.nodes for r in sol.mtev_routes] == [[0, 1, 2]]

    def test_capacity_forces_two_routes(self):
        inst = build_instance([[0, 10, 900], [0, 0, 900], [0, 0, 0]],
                              [5, 5], Q=5.0)
        sol = lns.initial_solution(inst, rng_at(0))
        assert len(sol.mtev_routes) == 2
        assert served_customers(sol) == [1, 2]

    def test_within_band_of_optimum(self):
        inst = generate_instance(5, seed=9)
        res = lns.run(inst, SolverConfig(iterations=0), rng=harness.run_seed(9, 0))
        orc = solve_exact(inst)
        assert res.best_cost <= 1.3 * orc.cost

    def test_unservable_customer_raises(self):
        inst = build_instance([[0, 5], [0, 0]], [7], Q=5.0)
        with pytest.raises(InfeasibleInstanceError):
            lns.initial_solution(inst, rng_at(0))

    def test_coverage_complete_on_random_instances(self):
        for seed in range(5):
            inst = generate_instance(12, seed=seed)
            sol = lns.initial_solution(inst, rng_at(seed))
            assert served_customers(sol) == list(inst.customers)


# ---------------------------------------------------------------------------
# removal operators
# ---------------------------------------------------------------------------

class TestDestroy:
    def setup_method(self):
        self.inst = generate_instance(8, seed=4)
        self.sol = lns.initial_solution(self.inst, rng_at(1))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            lns.destroy("nope", self.sol, self.inst, rng_at(0), 2)

    def test_random_removal_of_everything(self):
        partial, removed = lns.destroy("random_removal", self.sol, self.inst,
                                       rng_at(0), k=self.inst.n)
        assert sorted(removed) == list(self.inst.customers)
        assert partial.mtev_routes == []

    def test_removal_keeps_depot_anchors(self):
        for op in lns.DESTROY_OPS:
            partial, removed = lns.destroy(op, self.sol, self.inst, rng_at(3), k=3)
            assert removed
            for route in partial.mtev_routes:
                assert route.nodes[0] == 0
                assert route.nodes[-1] == self.inst.depot_end
            assert sorted(served_customers(partial) + removed) == list(self.inst.customers)

    def test_distance_removal_takes_biggest_detour_first(self):
        inst = build_instance([[0, 10, 4], [0, 0, 5], [0, 0, 0]], [1, 1])
        sol = Solution.from_routes([make_route(0, [1, 2], inst)])
        d = inst.dist
        detour = {
            1: float(d[0, 1] + d[1, 2] - d[0, 2]),
            2: float(d[1, 2] + d[2, 3] - d[1, 3]),
        }
        want_first = max(detour, key=detour.get)
        _, removed = lns.destroy("distance_removal", sol, inst, rng_at(0), k=1)
        assert removed == [want_first]

    def test_charge_removal_targets_energy(self):
        # route goes over battery; drop whichever customer saves most energy
        inst = build_instance([[0, 30, 5], [0, 0, 40], [0, 0, 0]], [1, 1], P=20.0)
        sol = Solution.from_routes([make_route(0, [1, 2], inst)])
        d = inst.dist
        saving = {
            1: float(d[0, 1] + d[1, 2] - d[0, 2]),
            2: float(d[1, 2] + d[2, 3] - d[1, 3]),
        }
        assert bdp.preprocess_route(sol.mtev_routes[0], inst) is not bdp.RouteClass.TRIVIAL_NO_CHARGE
        _, removed = lns.destroy("charge_removal", sol, inst, rng_at(0), k=1)
        assert removed == [max(saving, key=saving.get)]

    def test_string_removal_is_contiguous(self):
        inst = generate_instance(10, seed=6)
        sol = lns.initial_solution(inst, rng_at(2))
        before = [list(r.nodes) for r in sol.mtev_routes]
        partial, removed = lns.destroy("string_removal", sol, inst, rng_at(5), k=3)
        assert len(removed) == 3
        survivors = [list(r.nodes) for r in partial.mtev_routes]
        for nodes in before:
            kept = [u for u in nodes if u not in removed]
            pruned = [u for u in kept if len(kept) > 2]
            assert pruned in ([], *[s for s in survivors]) or kept in ([0, inst.depot_end], *survivors)

    def test_shaw_removal_groups_similar(self):
        # three co-located twins plus a far loner: shaw keeps the loner
        core = [[0, 10, 10, 10, 500],
                [0, 0, 1, 1, 500],
                [0, 0, 0, 1, 500],
                [0, 0, 0, 0, 500],
                [0, 0, 0, 0, 0]]
        inst = build_instance(core, [2, 2, 2, 2])
        sol = Solution.from_routes([make_route(0, [1, 2, 3, 4], inst)])
        _, removed = lns.destroy("shaw_removal", sol, inst, rng_at(8), k=3)
        assert 4 not in removed


# ---------------------------------------------------------------------------
# insertion operators
# ---------------------------------------------------------------------------

class TestRepair:
    def test_unknown_operator_rejected(self, one_customer):
        with pytest.raises(ValueError):
            lns.repair("nope", Solution(), [1], one_customer, rng_at(0))

    def test_greedy_picks_cheapest_position(self):
        inst = build_instance(
            [[0, 10, 10, 3], [0, 0, 10, 2], [0, 0, 0, 9], [0, 0, 0, 0]],
            [1, 1, 1], rho_e=1e6)
        partial = Solution.from_routes([make_route(0, [1, 2], inst)])
        nodes = partial.mtev_routes[0].nodes
        d = inst.dist
        deltas = {
            pos: float(d[nodes[pos - 1], 3] + d[3, nodes[pos]] - d[nodes[pos - 1], nodes[pos]])
            for pos in range(1, len(nodes))
        }
        best_pos = min(deltas, key=lambda p: (deltas[p], p))
        out = lns.repair("greedy_insertion", partial, [3], inst, rng_at(0))
        want = nodes[:best_pos] + [3] + nodes[best_pos:]
        assert out.mtev_routes[0].nodes == want

    def test_regret_prioritizes_forced_customer(self):
        # customer 2 fits nowhere but a fresh route; it must be placed first
        # and customer 3 then snuggles next to it
        core = [[0, 5, 100, 100],
                [0, 0, 100, 50],
                [0, 0, 0, 1],
                [0, 0, 0, 0]]
        inst = build_instance(core, [9, 9, 1], Q=10.0, max_mtev=2)
        partial = Solution.from_routes([make_route(0, [1], inst)])
        for op in ("regret2_insertion", "regret3_insertion"):
            out = lns.repair(op, partial, [3, 2], inst, rng_at(0))
            assert out is not None
            routes = {tuple(r.nodes) for r in out.mtev_routes}
            assert (0, 2, 3, 4) in routes or (0, 3, 2, 4) in routes

    def test_charge_insertion_opens_route_at_battery_margin(self):
        inst = build_instance([[0, 50, 30], [0, 0, 40], [0, 0, 0]], [1, 1], P=100.0)
        partial = Solution.from_routes([make_route(0, [1], inst)])   # exactly at P
        out = lns.repair("charge_insertion", partial, [2], inst, rng_at(0))
        assert len(out.mtev_routes) == 2
        assert [0, 2, 3] in [r.nodes for r in out.mtev_routes]
        # cross-check: every in-place insertion would have needed charging
        for pos in (1, 2):
            nodes = [0, 1, 3]
            trial = make_route(0, (nodes[1:-1][:pos - 1] + [2] + nodes[1:-1][pos - 1:]), inst)
            res = bdp.enumerate_patterns(trial, inst)
            assert 0 not in res.patterns

    def test_failure_when_nothing_fits(self):
        inst = build_instance([[0, 5, 5], [0, 0, 5], [0, 0, 0]],
                              [9, 9], Q=10.0, max_mtev=1)
        partial = Solution.from_routes([make_route(0, [1], inst)])
        for op in lns.REPAIR_OPS:
            assert lns.repair(op, partial, [2], inst, rng_at(0)) is None

    def test_all_repairs_reinsert_everything(self):
        inst = generate_instance(10, seed=12)
        sol = lns.initial_solution(inst, rng_at(3))
        for d_op in lns.DESTROY_OPS:
            partial, removed = lns.destroy(d_op, sol, inst, rng_at(7), k=4)
            for r_op in lns.REPAIR_OPS:
                out = lns.repair(r_op, partial, removed, inst, rng_at(9))
                assert out is not None
                assert served_customers(out) == list(inst.customers)


# ---------------------------------------------------------------------------
# route-local operators against full rescans
# ---------------------------------------------------------------------------
#
# The reference operators below price every position of every route afresh
# before each move. The operators in lns re-score only the route a move
# touched and must make exactly the same moves. `seen` collects the
# branches a case exercised.

def ref_options(routes, u, inst, loads, seen):
    d = inst.dist
    du = inst.demand_of(u)
    options = []
    for r_idx, nodes in enumerate(routes):
        if loads[r_idx] + du > inst.Q:
            seen.add("capacity")
            continue
        for pos in range(1, len(nodes)):
            prev, nxt = nodes[pos - 1], nodes[pos]
            delta = inst.rho_t * float(d[prev, u] + d[u, nxt] - d[prev, nxt])
            options.append((delta, r_idx, pos))
    if len(routes) < inst.max_mtev and du <= inst.Q:
        delta = inst.rho_t * float(d[0, u] + d[u, inst.depot_end]) + inst.rho_e
        options.append((delta, len(routes), 1))
    elif du <= inst.Q:
        seen.add("fleet_cap")
    return options


def apply_insertion(routes, loads, u, r_idx, pos, inst):
    """Insert u at (r_idx, pos); r_idx == len(routes) opens a route."""
    if r_idx == len(routes):
        routes.append([0, u, inst.depot_end])
        loads.append(inst.demand_of(u))
    else:
        routes[r_idx].insert(pos, u)
        loads[r_idx] += inst.demand_of(u)


def ref_greedy_insertion(routes, removed, inst, seen):
    routes = [list(r) for r in routes]
    loads = [lns._route_load(nodes, inst) for nodes in routes]
    pending = list(removed)
    while pending:
        best = None
        for u in pending:
            options = ref_options(routes, u, inst, loads, seen)
            if not options:
                continue
            options.sort(key=lambda o: (o[0], o[1], o[2]))
            cand = (options[0][0], u, options[0][1], options[0][2])
            if best is None or cand < best:
                best = cand
        if best is None:
            seen.add("none")
            return None
        _, u, r_idx, pos = best
        apply_insertion(routes, loads, u, r_idx, pos, inst)
        pending.remove(u)
    return routes


def ref_regret_insertion(routes, removed, inst, depth, seen):
    routes = [list(r) for r in routes]
    loads = [lns._route_load(nodes, inst) for nodes in routes]
    pending = list(removed)
    while pending:
        best = None
        for u in pending:
            options = ref_options(routes, u, inst, loads, seen)
            if not options:
                continue
            options.sort(key=lambda o: (o[0], o[1], o[2]))
            if len(options) < depth:
                seen.add("few_options")
                regret = math.inf
            else:
                regret = sum(options[i][0] - options[0][0] for i in range(1, depth))
            cand = (-regret, options[0][0], u)
            if best is None or cand < best[0]:
                best = (cand, u, options[0][1], options[0][2])
        if best is None:
            seen.add("none")
            return None
        _, u, r_idx, pos = best
        apply_insertion(routes, loads, u, r_idx, pos, inst)
        pending.remove(u)
    return routes


def ref_metric_removal(routes, k, metric, candidates):
    routes = [list(r) for r in routes]
    removed = []
    for _ in range(k):
        best = None
        for r_idx in candidates(routes):
            nodes = routes[r_idx]
            for pos in range(1, len(nodes) - 1):
                key = (-metric(nodes, pos), nodes[pos])
                if best is None or key < best[0]:
                    best = (key, r_idx, pos)
        if best is None:
            break
        _, r_idx, pos = best
        removed.append(routes[r_idx].pop(pos))
    return routes, removed


def ref_removals(inst, seen):
    """Reference distance, worst and charge removal as op -> f(routes, k)."""
    def every_route(routes):
        return range(len(routes))

    def over_battery_first(routes):
        over = [r_idx for r_idx, nodes in enumerate(routes)
                if inst.rho_t * inst.route_distance(nodes) > inst.P and len(nodes) > 2]
        seen.add("over" if over else "not_over")
        return over if over else [r_idx for r_idx, nodes in enumerate(routes)
                                  if len(nodes) > 2]

    def detour(nodes, pos):
        prev, u, nxt = nodes[pos - 1], nodes[pos], nodes[pos + 1]
        d = inst.dist
        return float(d[prev, u] + d[u, nxt] - d[prev, nxt])

    def worst(nodes, pos):
        saving = inst.rho_t * detour(nodes, pos)
        return saving + inst.rho_e if len(nodes) == 3 else saving

    return {
        "distance_removal": lambda rs, k: ref_metric_removal(rs, k, detour, every_route),
        "worst_removal": lambda rs, k: ref_metric_removal(rs, k, worst, every_route),
        "charge_removal": lambda rs, k: ref_metric_removal(
            rs, k, lambda nodes, pos: inst.rho_t * detour(nodes, pos), over_battery_first),
    }


def operator_case(n, seed, Q, P, slack, top=None):
    """A generated instance, a full solution and a partial one with its
    removed customers in random order.

    Customers join a random route with room, or open one. A customer whose
    demand exceeds Q rides alone, over capacity. The fleet cap is the
    partial route count plus `slack`. With `top`, the instance is a
    `tied_instance`, whose integer distances in 1..top make tied costs common.
    """
    rng = np.random.default_rng(seed)
    if top is None:
        inst = generate_instance(n, seed, Q=Q, P=P)
    else:
        inst = tied_instance(n, seed, top, P, Q)
    full, loads = [], []
    for u in rng.permutation(inst.customers):
        du = inst.demand_of(u)
        room = [r for r, load in enumerate(loads) if load + du <= Q]
        if room and rng.random() < 0.8:
            r = int(rng.choice(room))
            full[r].insert(-1, int(u))
            loads[r] += du
        else:
            full.append([0, int(u), inst.depot_end])
            loads.append(du)
    served = [u for nodes in full for u in nodes[1:-1]]
    removed = [int(u) for u in rng.choice(served, size=int(rng.integers(1, n + 1)),
                                          replace=False)]
    partial = lns._drop_empty(lns._remove_customers(full, removed))
    inst = dataclasses.replace(inst, max_mtev=len(partial) + slack)
    return inst, full, partial, removed


def compare_operators(inst, full, partial, removed, seen):
    ctx = lns._Context(inst, SolverConfig())
    want = {
        "greedy_insertion": ref_greedy_insertion(partial, removed, inst, seen),
        "regret2_insertion": ref_regret_insertion(partial, removed, inst, 2, seen),
        "regret3_insertion": ref_regret_insertion(partial, removed, inst, 3, seen),
    }
    for op, routes in want.items():
        got = lns._REPAIR_FUNCS[op]([list(r) for r in partial], list(removed), ctx, None)
        assert got == routes, op
    for op, ref in ref_removals(inst, seen).items():
        for k in (1, len(removed), inst.n + 1):
            got = lns._DESTROY_FUNCS[op]([list(r) for r in full], ctx, None, k)
            assert got == ref(full, k), (op, k)


class TestRouteLocalOperators:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1),
           Q=st.sampled_from([2.0, 3.0, 4.0, 6.0, 10.0]),
           P=st.sampled_from([900.0, 1500.0, 4000.0, 15000.0]),
           slack=st.integers(0, 3))
    def test_same_moves_as_full_rescan(self, n, seed, Q, P, slack):
        compare_operators(*operator_case(n, seed, Q, P, slack), set())

    def test_every_branch_is_exercised(self):
        seen = set()
        for seed in range(40):
            compare_operators(*operator_case(3 + seed % 28, seed, (2.0, 3.0, 4.0, 6.0, 10.0)[seed % 5],
                                             (900.0, 15000.0)[seed % 2], seed % 3), seen)
        assert seen == {"capacity", "fleet_cap", "few_options", "none", "over", "not_over"}


class TestFleet:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           rho_t=st.floats(0.1, 10.0), rho_e=st.floats(0.5, 5000.0),
           tenths=st.booleans(), negative_zero=st.booleans(), slack=st.integers(0, 2))
    def test_opening_option_costs_a_lone_route(self, n, seed, rho_t, rho_e, tenths,
                                               negative_zero, slack):
        inst = generate_instance(n, seed, rho_t=rho_t, rho_e=rho_e, Q=4.0)
        dist = inst.dist / 10 if tenths else inst.dist.copy()
        if negative_zero:
            end = inst.depot_end
            for i in (0, end):
                for j in (0, end):
                    dist[i, j] = -0.0
        inst = dataclasses.replace(inst, dist=dist)
        assert math.copysign(1.0, inst.dist[0, inst.depot_end]) == (-1.0 if negative_zero else 1.0)
        rng = rng_at(seed)
        routes = [[0, int(u), inst.depot_end] for u in rng.permutation(inst.customers)[:n // 2]]
        inst = dataclasses.replace(inst, max_mtev=len(routes) + slack)
        fleet = lns._Fleet(routes, lns._Context(inst, SolverConfig()))
        if not slack:
            assert fleet.opening is None
            return
        assert fleet.opening == len(routes)
        for u in inst.customers:
            want = inst.rho_t * (float(inst.dist[0, u]) + float(inst.dist[u, inst.depot_end])) \
                + inst.rho_e
            opening = [o for o in fleet.options(u) if o[1] == fleet.opening]
            assert [(o[0].hex(), o[2]) for o in opening] == [(want.hex(), 1)]
            for depth in (1, 2):
                priced = fleet.price(u, [fleet.table(fleet.opening)], depth)
                assert [[(o[0].hex(), o[1], o[2]) for o in opts] for opts in priced] == \
                    [[(want.hex(), fleet.opening, 1)]]


# ---------------------------------------------------------------------------
# lazy charge insertion and the construction order against full scans
# ---------------------------------------------------------------------------

def ref_min_card(nodes, inst, calls):
    calls.append(1)
    card = bdp.min_charge_count(make_route(0, nodes[1:-1], inst), inst)
    return math.inf if card is None else card


def ref_charge_insertion(routes, removed, inst, seen, calls):
    """Charge insertion that prices every option before ranking them."""
    routes = [list(r) for r in routes]
    loads = [lns._route_load(nodes, inst) for nodes in routes]
    base_card = [ref_min_card(nodes, inst, calls) for nodes in routes]
    if math.inf in base_card:
        seen.add("inf_base")
    for u in removed:
        options = ref_options(routes, u, inst, loads, seen)
        if not options:
            seen.add("none")
            return None
        if min(options)[0] < 0:
            seen.add("negative_delta")
        ranked = []
        for delta, r_idx, pos in options:
            fresh = r_idx == len(routes)
            if fresh:
                nodes = [0, u, inst.depot_end]
                before = 0.0
            else:
                nodes = routes[r_idx][:pos] + [u] + routes[r_idx][pos:]
                before = base_card[r_idx]
            after = ref_min_card(nodes, inst, calls)
            increase = max(0.0, after - before) if after != math.inf else math.inf
            keep_existing = 1 if (increase > 0 and fresh) else 2
            ranked.append((increase, keep_existing, delta, r_idx, pos, after))
        ranked.sort(key=lambda o: o[:5])
        increase, _, delta, r_idx, pos, after = ranked[0]
        seen.add("early_exit" if increase == 0 else "full_scan")
        if increase == math.inf:
            seen.add("none")
            return None
        apply_insertion(routes, loads, u, r_idx, pos, inst)
        if r_idx == len(base_card):
            base_card.append(after)
        else:
            base_card[r_idx] = after
    return routes


def compare_charge_insertion(n, seed, Q, P, slack, gamma, seen, calls, top=None):
    inst, _, partial, removed = operator_case(n, seed, Q, P, slack, top)
    inst = dataclasses.replace(inst, gamma=gamma)
    want = ref_charge_insertion(partial, removed, inst, seen, calls)
    got = lns._charge_insertion([list(r) for r in partial], list(removed),
                                lns._Context(inst, SolverConfig()), None)
    assert got == want


def ref_initial_solution(inst, rng):
    """The construction with a keyed sort of the unserved customers per step."""
    charge_free_gate = rng.random() < 0.5
    unserved = set(inst.customers)
    routes, current, load = [], [0], 0

    def chargeable(nodes):
        return bdp.min_charge_count(make_route(0, nodes[1:-1], inst), inst) is not None

    def battery_ok(nodes):
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
        for u in candidates:
            if load + inst.demand_of(u) <= inst.Q and battery_ok(current + [u, inst.depot_end]):
                current.append(u)
                load += inst.demand_of(u)
                unserved.remove(u)
                break
        else:
            if len(current) == 1:
                lone = next((u for u in candidates if inst.demand_of(u) <= inst.Q
                             and chargeable([0, u, inst.depot_end])), None)
                if lone is None:
                    raise InfeasibleInstanceError(f"customer {candidates[0]} unservable")
                unserved.remove(lone)
                current = [0, lone]
            routes.append(current + [inst.depot_end])
            if len(routes) >= inst.max_mtev and unserved:
                raise InfeasibleInstanceError("vehicle cap reached")
            current, load = [0], 0
    if len(current) > 1:
        routes.append(current + [inst.depot_end])
    return routes


def tied_instance(n, seed, top, P, Q):
    """Integer distances in 1..top, so most rows hold ties."""
    rng = np.random.default_rng(seed)
    core = rng.integers(1, top + 1, size=(n + 1, n + 1))
    demand = [int(q) for q in rng.integers(1, 4, size=n)]
    return build_instance(core, demand, P=P, Q=Q, gamma=float(rng.choice([0.5, 2.0])))


def gate_seed(charge_free, start):
    """The first rng seed from start whose first draw picks the given gate."""
    seed = start
    while (rng_at(seed).random() < 0.5) != charge_free:
        seed += 1
    return seed


def compare_constructions(inst, rng_start):
    """Both gates' constructions equal the reference's, RNG states included;
    the charge-free reference's routes, or None when it raises."""
    charge_free_routes = None
    for charge_free in (True, False):
        rng_seed = gate_seed(charge_free, rng_start)
        ref_rng, rng = rng_at(rng_seed), rng_at(rng_seed)
        try:
            want = ref_initial_solution(inst, ref_rng)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                lns.initial_solution(inst, rng)
            continue
        got = lns.initial_solution(inst, rng)
        assert [r.nodes for r in got.mtev_routes] == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if charge_free:
            charge_free_routes = want
    return charge_free_routes


@pytest.mark.filterwarnings("ignore:gamma <= rho_t")
class TestLazyPricing:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1),
           Q=st.sampled_from([2.0, 4.0, 10.0]),
           P=st.sampled_from([300.0, 900.0, 1500.0, 15000.0]),
           slack=st.integers(0, 2), gamma=st.sampled_from([0.5, 2.0]),
           top=st.sampled_from([None, 3, 6]))
    def test_charge_insertion_same_as_full_scan(self, n, seed, Q, P, slack, gamma, top):
        # integer distances in 1..top, with P scaled down to them, make
        # batteries that a route drains exactly common
        compare_charge_insertion(n, seed, Q, P if top is None else P / 100, slack, gamma,
                                 set(), [], top)

    def test_charge_insertion_branches(self, monkeypatch):
        # every count the charge insertion uses is 0 because the route fits
        # the battery, or comes from count tables: a route's own count from
        # the DP's scan, an insertion's from the join or, near a tie, from
        # the scan on the trial route
        answers, dp_calls = [], []
        dp = bdp.CountTables._first_terminal
        monkeypatch.setattr(bdp.CountTables, "_first_terminal",
                            lambda tables: dp_calls.append(1) or dp(tables))

        def fits(*args, fit=bdp.fits):
            if fit(*args):
                answers.append("fits")
                return True
            return False

        monkeypatch.setattr(bdp, "fits", fits)
        depth = [0]     # a count nested in another, or the reference's, is not recorded

        def recorded(*args, ask, name):
            calls = len(dp_calls)
            depth[0] += 1
            try:
                count = ask(*args)
            finally:
                depth[0] -= 1
            if not depth[0] and name != "min_charge_count":
                answers.append("route" if name == "route_count"
                               else "dp" if len(dp_calls) > calls else "join")
            return count

        for name in ("route_count", "insertion_count"):
            monkeypatch.setattr(bdp.CountTables, name, functools.partialmethod(
                recorded, ask=getattr(bdp.CountTables, name), name=name))
        monkeypatch.setattr(bdp, "min_charge_count", functools.partial(
            recorded, ask=bdp.min_charge_count, name="min_charge_count"))
        seen, ref_calls = set(), []
        for seed in range(60):
            top = (None, 3, 6)[seed % 3]
            P = (300.0, 900.0, 1500.0, 15000.0)[seed // 3 % 4]
            compare_charge_insertion(3 + seed % 28, seed, (2.0, 4.0, 10.0)[seed // 2 % 3],
                                     P if top is None else P / 100, seed % 3,
                                     (0.5, 2.0)[seed // 4 % 2], seen, ref_calls, top)
        assert seen >= {"early_exit", "full_scan", "inf_base", "fleet_cap",
                        "negative_delta", "none"}
        assert {"fits", "route", "join", "dp"} <= set(answers)
        assert len(answers) < len(ref_calls)

    def test_rounding_decides_the_chargeable_gate(self):
        # route [0, 1, 2, 3] has edge lengths 0, 0.2, 0: its all-charge level
        # rounds to exactly 0, but rho_t * 0.2 - gamma * 0.2 exceeds P, so the
        # DP finds no pattern and the second customer needs a route of its own
        dist = [[0, 0, 0, 0], [0, 0, 0.2, 0], [0, 0.2, 0, 0], [0, 0, 0, 0]]
        inst = Instance(n=2, dist=dist, demand=[1, 1], P=0.02599999999999996, B=1e6,
                        Q=10.0, rho_t=1.3, rho_e=100.0, rho_c=200.0, gamma=0.9 * 1.3,
                        phi=1.0, max_mtev=2, max_mct=2)
        assert bdp.min_charge_count(Route(0, [0, 1, 2, 3]), inst) is None
        compare_constructions(inst, 0)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 25), seed=st.integers(0, 2**32 - 1),
           top=st.integers(1, 6), P=st.sampled_from([4.0, 8.0, 15.0, 100.0]),
           Q=st.sampled_from([3.0, 5.0, 10.0]), rng_start=st.integers(0, 10**6),
           cap=st.integers(1, 25), pick=st.integers(0, 10**6), tenths=st.booleans())
    def test_initial_solution_same_as_keyed_sort(self, n, seed, top, P, Q, rng_start, cap, pick,
                                                 tenths):
        # a vehicle cap below n makes some constructions run out of vehicles
        inst = dataclasses.replace(tied_instance(n, seed, top, P, Q), max_mtev=min(cap, n))
        if tenths:
            # lengths in tenths, which binary floats round
            inst = dataclasses.replace(inst, dist=inst.dist / 10, P=P / 10)
        routes = compare_constructions(inst, rng_start)
        if not routes:
            return
        # batteries that one of the reference's routes uses up exactly: the
        # charge-free gate decides at equality, and where gamma < rho_t the
        # route's all-charge level ends at 0, inside the margin
        length = inst.route_distance(routes[pick % len(routes)])
        compare_constructions(dataclasses.replace(inst, P=inst.rho_t * length), rng_start)
        if inst.gamma < inst.rho_t:
            compare_constructions(
                dataclasses.replace(inst, P=(inst.rho_t - inst.gamma) * length), rng_start)



# ---------------------------------------------------------------------------
# regret insertion heads: tied costs and every way a head is updated
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:gamma <= rho_t")
class TestRegretHeads:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1), top=st.integers(1, 4),
           Q=st.sampled_from([2.0, 3.0, 4.0, 10.0]),
           P=st.sampled_from([4.0, 8.0, 15.0, 100.0]), slack=st.integers(0, 3),
           rho_e=st.sampled_from([1.0, 3.0, 6.0, 100.0]))
    def test_same_moves_as_full_rescan_on_ties(self, n, seed, top, Q, P, slack, rho_e):
        # a small acquisition cost lets the empty route's option tie with
        # route options too
        inst, full, partial, removed = operator_case(n, seed, Q, P, slack, top)
        compare_operators(dataclasses.replace(inst, rho_e=rho_e), full, partial, removed, set())

    def test_every_head_update_is_exercised(self, monkeypatch):
        seen = set()
        inserted = []   # per insertion of one call: the route it changed
        reranked = {}   # id of a customer's changed-route dict -> len(inserted) at its last re-rank
        rerank, merge = lns._rerank, lns._merge_head

        def spy_rerank(ranked, changed, depth):
            scanned, left = 0, depth
            for option in ranked:
                scanned += 1
                if option[1] not in changed:
                    left -= 1
                    if not left:
                        break
            if any(option[1] in changed for option in ranked[:scanned]):
                seen.add("skipped_stale")
            if any(changed.values()):
                seen.add("read_changed")
            if left:
                seen.add("few_unchanged")
            since = inserted[reranked.get(id(changed), 0):]
            if any(since.count(r_idx) > 1 for r_idx in changed):
                seen.add("changed_twice")
            reranked[id(changed)] = len(inserted)
            return rerank(ranked, changed, depth)

        def spy_merge(head, new, depth):
            seen.add("merged")
            return merge(head, new, depth)

        opens = []   # per insertion of one call: (opens a route, fills the fleet)
        insert = lns._Fleet.insert

        def spy_insert(fleet, u, r_idx, pos):
            opened = r_idx == fleet.opening
            insert(fleet, u, r_idx, pos)
            inserted.append(r_idx)
            opens.append((opened, opened and fleet.opening is None))

        monkeypatch.setattr(lns, "_rerank", spy_rerank)
        monkeypatch.setattr(lns, "_merge_head", spy_merge)
        monkeypatch.setattr(lns._Fleet, "insert", spy_insert)
        for seed in range(40):
            inst, _, partial, removed = operator_case(
                3 + seed % 28, seed, (2.0, 3.0, 4.0, 6.0, 10.0)[seed % 5],
                (900.0, 15000.0)[seed % 2], seed % 3)
            ctx = lns._Context(inst, SolverConfig())
            for depth in (1, 2, 3):
                want = ref_regret_insertion(partial, removed, inst, depth, set())
                opens.clear()
                inserted.clear()
                reranked.clear()
                got = lns._regret_insertion([list(r) for r in partial], list(removed),
                                            ctx, None, depth)
                assert got == want
                # a customer is still pending after every insertion but the last
                for opened, filled in opens[:len(removed) - 1]:
                    if opened:
                        seen.add("opened")
                    if filled:
                        seen.add("fleet_filled")
        assert seen == {"skipped_stale", "read_changed", "few_unchanged", "changed_twice",
                        "merged", "opened", "fleet_filled"}


# ---------------------------------------------------------------------------
# Shaw removal from the per-customer order against a scan of the remaining
# ---------------------------------------------------------------------------

def ref_shaw_removal(routes, ctx, rng, k):
    """Shaw removal that scans every remaining customer for each pick."""
    rel = lns._relatedness(ctx.inst, ctx.cfg).tolist()
    served = sorted(u for nodes in routes for u in nodes[1:-1])
    if not served:
        return [list(r) for r in routes], []
    k = min(k, len(served))
    seed = int(rng.choice(served))
    removed = [seed]
    remaining = [u for u in served if u != seed]
    while len(removed) < k and remaining:
        row = rel[removed[int(rng.integers(len(removed)))] - 1]
        pick = min(remaining, key=lambda u: (row[u - 1], u))
        removed.append(pick)
        remaining.remove(pick)
    return lns._remove_customers(routes, removed), removed


@pytest.mark.filterwarnings("ignore:gamma <= rho_t")
class TestShawOrder:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 100), seed=st.integers(0, 2**32 - 1),
           ks=st.lists(st.integers(1, 101), min_size=1, max_size=3),
           top=st.sampled_from([None, 1, 2, 4]), draw=st.integers(0, 2**32 - 1),
           weights=st.sampled_from([(0.75, 0.25), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0),
                                    (-1.0, 2.0), (1e308, 1e308)]))
    @example(n=100, seed=5, ks=[101, 40, 3], top=2, draw=1, weights=(1e308, 1e308))
    @example(n=100, seed=6, ks=[30, 30, 30], top=None, draw=2, weights=(0.75, 0.25))
    def test_same_picks_as_a_scan(self, n, seed, ks, top, draw, weights):
        # integer distances in 1..top, demands in 1..3 and zero weights tie
        # relatedness values; the largest weights make some of them inf.
        # One context serves every call, so later calls read rows that
        # earlier ones sorted.
        inst, full, partial, _ = operator_case(n, seed, 10.0, 1500.0, 0, top)
        ctx = lns._Context(inst, SolverConfig(shaw_distance_weight=weights[0],
                                              shaw_demand_weight=weights[1]))
        want_rng, got_rng = rng_at(draw), rng_at(draw)
        for k in ks:
            for routes in (full, partial):
                sorted_before = len(ctx.shaw_order)
                want = ref_shaw_removal([list(r) for r in routes], ctx, want_rng, k)
                assert lns._shaw_removal([list(r) for r in routes], ctx, got_rng, k) == want
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                # a pick sorts at most its anchor's row; the seed is no pick
                assert len(ctx.shaw_order) - sorted_before <= max(len(want[1]) - 1, 0)


# ---------------------------------------------------------------------------
# adaptive weights
# ---------------------------------------------------------------------------

class TestWeights:
    def test_unused_operator_keeps_weight(self):
        stats = lns.OperatorStats(("a", "b"))
        stats.record(0, 10.0)
        stats.end_segment(reaction=0.5, floor=1e-6)
        assert stats.weights[1] == 1.0

    def test_full_reaction_equals_mean_score(self):
        stats = lns.OperatorStats(("a", "b"))
        for _ in range(4):
            stats.record(0, 12.0)
        stats.end_segment(reaction=1.0, floor=1e-6)
        assert stats.weights[0] == pytest.approx(12.0)

    def test_better_scores_raise_selection_probability(self):
        stats = lns.OperatorStats(("a", "b"))
        p_before = stats.probabilities()[0]
        for _ in range(3):
            stats.record(0, 33.0)
            stats.record(1, 9.0)
        stats.end_segment(reaction=0.5, floor=1e-6)
        assert stats.probabilities()[0] > p_before
        assert stats.weights.sum() > 0

    def test_select_draws_as_generator_choice(self):
        rng = np.random.default_rng(2024)
        for trial in range(300):
            k = int(rng.integers(1, 8))
            weights = 10.0 ** rng.uniform(-6, 0, k)
            if trial % 3 == 0:
                weights[int(rng.integers(k))] = 1e-6
            stats = lns.OperatorStats(tuple(map(str, range(k))), weights=weights)
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(25):
                assert stats.select(ours) == int(theirs.choice(k, p=stats.probabilities()))
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_index_draws_as_generator_calls(self):
        """The operators draw indices and index their lists with them. Each
        draw gives what the Generator call on the list itself gives, and
        leaves the generator in the same state, for every list size up to 60
        and every sample size, the empty list included."""
        for size in range(61):
            items = [3 * i + 1 for i in range(size)]
            for seed in range(4):
                ours, theirs = rng_at(seed), rng_at(seed)
                if items:
                    assert items[int(ours.integers(size))] == int(theirs.choice(items))
                for k in range(size + 1):
                    assert ([items[i] for i in ours.choice(size, size=k, replace=False).tolist()]
                            == theirs.choice(items, size=k, replace=False).tolist())
                assert ([items[i] for i in ours.permutation(size).tolist()]
                        == theirs.permutation(items).tolist())
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_select_follows_segment_updates(self):
        stats = lns.OperatorStats(("a", "b"))
        for _ in range(3):
            stats.record(1, 50.0)
        stats.end_segment(reaction=1.0, floor=1e-6)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        picks = [stats.select(ours) for _ in range(200)]
        assert picks == [int(theirs.choice(2, p=stats.probabilities())) for _ in range(200)]

    @pytest.mark.parametrize("weights", [[np.inf, 1.0], [np.nan, 1.0], [0.0, 0.0],
                                         [-1.0, 3.0]])
    def test_unusable_weights_raise(self, weights):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="probabilities"):
            lns.OperatorStats(("a", "b"), weights=np.array(weights))

    def test_floor_prevents_starvation(self):
        stats = lns.OperatorStats(("a",))
        for _ in range(5):
            stats.record(0, 0.0)
        for _ in range(40):
            stats.end_segment(reaction=0.5, floor=1e-6)
            stats.record(0, 0.0)
        assert stats.weights[0] >= 1e-6


# ---------------------------------------------------------------------------
# configuration file
# ---------------------------------------------------------------------------

# 10**400 is a JSON integer beyond the float range
FLOAT_EXTREMES = [0.0, -0.0, 5e-324, sys.float_info.min, 0.5,
                   1.0 - sys.float_info.epsilon / 2, 1.0, sys.float_info.max, 10**400]
TYPE_EXTREMES = {
    "int": st.sampled_from([0, 1, 2, 2**31 - 1, 2**63 - 1, 10**400]),
    "float": st.sampled_from(FLOAT_EXTREMES),
    "float | None": st.none() | st.sampled_from(FLOAT_EXTREMES),
    "bool": st.booleans(),
}
# one settings field other than the iteration budget, with an extreme value
# of its annotated type
CONFIG_OVERRIDE = st.sampled_from(
    [f for f in dataclasses.fields(SolverConfig) if f.name != "iterations"]).flatmap(
    lambda f: st.tuples(st.just(f.name), TYPE_EXTREMES[f.type]))


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = SolverConfig(iterations=123, cooling=0.99, lns_exact_combos=64)
        path = tmp_path / "cfg.json"
        cfg.save(path)
        again = SolverConfig.load(path)
        assert again == cfg

    def test_every_search_constant_is_exposed(self):
        data = SolverConfig().to_json()
        for key in ("iterations", "segment_size", "reaction", "score_best",
                    "score_improve", "score_accept_worse", "weight_floor",
                    "init_temp_factor", "cooling", "removal_min_frac",
                    "removal_max_frac", "string_min", "string_max",
                    "shaw_distance_weight", "shaw_demand_weight",
                    "bdp_max_edges", "mct_transfer_depletes"):
            assert key in data

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            SolverConfig.from_json({"iterations": 5, "typo": 1})

    @pytest.mark.parametrize("data, match", [
        ({"string_min": 0, "string_max": 0}, "string_min must be at least 1"),
        ({"string_min": 7}, "exceeds string_max"),
        ({"segment_size": 0}, "segment_size must be at least 1"),
        ({"iterations": 2.0}, "iterations must be an integer"),
        ({"iterations": True}, "iterations must be an integer"),
        ({"cooling": float("nan")}, "cooling must be a finite number"),
        ({"time_limit": float("inf")}, "time_limit must be a finite number or null"),
        ({"mct_transfer_depletes": 1}, "mct_transfer_depletes must be a boolean"),
        ([["iterations", 5]], "config must be a JSON object"),
        ({"weight_floor": 0.0}, "weight_floor must be > 0"),
        ({"weight_floor": -1.0}, "weight_floor must be > 0"),
        ({"reaction": -5.0}, r"reaction must be in \[0, 1\]"),
        ({"reaction": 1.5}, r"reaction must be in \[0, 1\]"),
        ({"cooling": 0.0}, r"cooling must be in \(0, 1\]"),
        ({"cooling": 1.01}, r"cooling must be in \(0, 1\]"),
        ({"score_improve": -1.0}, "score_improve must be in"),
        ({"score_best": 1e308, "segment_size": 5}, "score_best must be in"),
        ({"score_accept_worse": sys.float_info.max}, "score_accept_worse must be in"),
        ({"weight_floor": 1e308}, "weight_floor must be in"),
        ({"removal_min_frac": -0.1}, r"removal_min_frac must be in \[0, 1\]"),
        ({"removal_max_frac": 1.5}, r"removal_max_frac must be in \[0, 1\]"),
        ({"removal_min_frac": 0.4, "removal_max_frac": 0.2}, "exceeds removal_max_frac"),
        ({"init_temp_factor": -1.0}, "init_temp_factor must be at least 0"),
        ({"assign_node_budget": 0}, "assign_node_budget must be at least 1"),
        ({"heuristic_retries": -1}, "heuristic_retries must be at least 0"),
        # removed: lns_exact_combos and lns_exact_duties are the only exact gate
        ({"exact_cap": 1_000_000}, r"unknown config keys: \['exact_cap'\]"),
    ])
    def test_invalid_settings_rejected(self, data, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig.from_json(data)

    def test_huge_scores_rejected_before_the_run(self):
        inst = generate_instance(8, seed=3, P=900.0)
        with pytest.raises(ValueError, match="score_best must be in"):
            lns.run(inst, SolverConfig(iterations=200, segment_size=5, score_best=1e308,
                                       score_improve=1e308, score_accept_worse=1e308),
                    rng=harness.run_seed(3, 0))

    def test_largest_floor_keeps_the_weights_finite(self):
        # every used operator's weight rises to the floor; the sum of the
        # weights must stay finite for roulette selection
        cap = score_cap(6)
        cfg = SolverConfig(iterations=300, segment_size=6, reaction=1.0, weight_floor=cap,
                           score_best=cap, score_improve=cap, score_accept_worse=cap)
        res = lns.run(generate_instance(8, seed=3, P=900.0), cfg, rng=harness.run_seed(3, 0))
        for stats in (res.destroy_stats, res.repair_stats):
            assert (stats.weights == cap).sum() >= 3
            assert np.isfinite(stats.weights.sum())

    @settings(max_examples=100, deadline=None)
    @given(overrides=st.lists(CONFIG_OVERRIDE, max_size=8).map(dict),
           iterations=st.sampled_from([0, 1, 40]), seed=st.integers(0, 2**32 - 1),
           P=st.sampled_from([900.0, 1500.0, 15000.0]))
    # a candidate less than 1e-9 below the incumbent's cost at a temperature
    # so low that -delta / temp overflows math.exp
    @example(overrides={"init_temp_factor": 5e-324, "removal_max_frac": 0.5, "bdp_max_edges": 0},
             iterations=40, seed=177674, P=900.0)
    def test_every_accepted_config_runs(self, overrides, iterations, seed, P):
        try:
            cfg = SolverConfig(**overrides, iterations=iterations)
        except ValueError:
            reject()
        res = lns.run(generate_instance(8, seed, P=P), cfg, rng=harness.run_seed(seed, 0))
        assert res.iterations <= iterations

    def test_valid_settings_accepted(self):
        cfg = SolverConfig.from_json({"iterations": 0, "time_limit": 0, "cooling": 1,
                                      "string_min": 1, "string_max": 1})
        assert (cfg.iterations, cfg.time_limit, cfg.string_max) == (0, 0, 1)
        assert SolverConfig.from_json({"time_limit": None}) == SolverConfig()


# ---------------------------------------------------------------------------
# full search
# ---------------------------------------------------------------------------

class TestRun:
    def test_zero_budget_returns_initial(self):
        inst = generate_instance(6, seed=21)
        res = lns.run(inst, SolverConfig(iterations=0), rng=harness.run_seed(21, 0))
        assert res.iterations == 0
        assert res.best is not None
        assert res.best_cost == pytest.approx(res.initial_cost)

    def test_deterministic_given_seed(self):
        inst = generate_instance(8, seed=30)
        cfg = SolverConfig(iterations=120)
        a = lns.run(inst, cfg, rng=harness.run_seed(30, 0))
        b = lns.run(inst, cfg, rng=harness.run_seed(30, 0))
        assert a.best_cost == b.best_cost
        assert a.best.to_json_str() == b.best.to_json_str()
        assert a.log == b.log

    def test_best_cost_never_worsens(self):
        inst = generate_instance(10, seed=33)
        res = lns.run(inst, SolverConfig(iterations=200), rng=harness.run_seed(33, 0))
        bests = [row[4] for row in res.log]
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(bests, bests[1:]))
        assert res.best_cost <= res.initial_cost + 1e-9

    def test_best_is_feasible_and_covering(self):
        inst = generate_instance(12, seed=34, P=900.0)
        res = lns.run(inst, SolverConfig(iterations=150), rng=harness.run_seed(34, 0))
        assert res.feasible
        assert check_feasibility(res.best, inst).passed
        assert served_customers(res.best) == list(inst.customers)

    def test_weights_stay_positive(self):
        inst = generate_instance(8, seed=35)
        cfg = SolverConfig(iterations=250, segment_size=50)
        res = lns.run(inst, cfg, rng=harness.run_seed(35, 0))
        assert (res.destroy_stats.weights > 0).all()
        assert (res.repair_stats.weights > 0).all()

    def test_matches_oracle_on_small_instances(self):
        hits = 0
        for seed in range(6):
            inst = generate_instance(5, seed=40 + seed)
            orc = solve_exact(inst)
            best = min(
                lns.run(inst, SolverConfig(iterations=300),
                        rng=harness.run_seed(seed, r)).best_cost
                for r in range(3)
            )
            if math.isclose(best, orc.cost, rel_tol=1e-9, abs_tol=1e-6):
                hits += 1
        assert hits >= 5

    def test_fallback_plan_is_not_certified(self):
        # with bdp_max_edges = 1 every route of two or more edges offers only
        # the count DP's witness; the best plan's 2 trucks exceed the floor of
        # 1, so nothing proves them minimal
        inst = generate_instance(6, 10, P=1200.0)
        res = lns.run(inst, SolverConfig(iterations=60, bdp_max_edges=1),
                      rng=harness.run_seed(10, 0))
        results = [bdp.enumerate_patterns(r, inst, max_edges=1) for r in res.best.mtev_routes]
        assert any(r.fallback and r.charged() for r in results)
        assert res.coordination.plan.mct_count == 2
        assert not res.coordination.plan.certified
        assert res.feasible

    @pytest.mark.parametrize("max_mtev", [0, 2])
    def test_zero_customers(self, max_mtev):
        """Nobody to serve: each run keeps the empty solution at the cost the
        oracle proves optimal, 0.0, and Shaw removal, drawn in every run,
        removes nobody."""
        inst = build_instance([[0]], [], max_mtev=max_mtev, max_mct=max_mtev)
        assert solve_exact(inst).cost == 0.0
        for seed in range(5):
            res = lns.run(inst, SolverConfig(iterations=50), rng=harness.run_seed(seed, 0))
            assert res.feasible and res.best_cost == 0.0
            assert check_feasibility(res.best, inst).passed
            assert "shaw_removal" in {row[1] for row in res.log}

    def test_time_limit_respected(self):
        inst = generate_instance(15, seed=50)
        cfg = SolverConfig(iterations=10**6, time_limit=0.5)
        res = lns.run(inst, cfg, rng=harness.run_seed(50, 0))
        assert res.runtime < 5.0
        assert res.iterations < 10**6

    def test_log_schema(self):
        inst = generate_instance(5, seed=51)
        res = lns.run(inst, SolverConfig(iterations=10), rng=harness.run_seed(51, 0))
        assert len(res.log) == 10
        it, d_op, r_op, inc, best, temp = res.log[0]
        assert it == 0
        assert d_op in lns.DESTROY_OPS
        assert r_op in lns.REPAIR_OPS
        assert best <= inc + 1e-9
        assert temp > 0


# ---------------------------------------------------------------------------
# coordination memo
# ---------------------------------------------------------------------------

def ref_coordinate(routes, inst, cfg):
    """One candidate coordinated afresh, with freshly enumerated
    patterns: exact while the combination count and the minimum duty count
    stay small, greedy otherwise. Returns (outcome, coordinator name)."""
    results = [bdp.enumerate_patterns(r, inst, max_edges=cfg.bdp_max_edges) for r in routes]
    if any(not res.feasible for res in results):
        return None, "infeasible"
    combos = math.prod(len(res.patterns) for res in results)
    duties = sum(res.min_cardinality() for res in results)
    if combos <= cfg.lns_exact_combos and duties <= cfg.lns_exact_duties:
        return coordination.coordinate_exact(
            routes, results, inst, node_budget=cfg.assign_node_budget,
            transfer_depletes=cfg.mct_transfer_depletes), "exact"
    return coordination.coordinate_heuristic(
        routes, results, inst, max_retries=cfg.heuristic_retries,
        transfer_depletes=cfg.mct_transfer_depletes), "heuristic"


def outcome_summary(out):
    """Everything a coordination outcome holds."""
    if out is None:
        return None
    plan = out.plan
    return (out.cost, plan.assignment, plan.certified, plan.duties)


def may_charge(nodes, inst, cfg):
    """Whether a route is not trivially charge-free: it has more than one
    pattern, one that charges, or none at all."""
    res = bdp.enumerate_patterns(Route(0, list(nodes)), inst, max_edges=cfg.bdp_max_edges)
    return res.patterns != [0]


def charge_free_variant(cand, inst, cfg, rng):
    """`cand` with only routes that never charge changed: those routes
    permuted among their own positions, one of them reversed, or its last
    customer moved to a new route at the end. None when no route of `cand`
    is charge-free."""
    free = [i for i, nodes in enumerate(cand) if not may_charge(nodes, inst, cfg)]
    if not free:
        return None
    out = [list(nodes) for nodes in cand]
    move = int(rng.integers(3))
    if move == 0:
        for src, dst in zip(free, rng.permutation(free)):
            out[int(dst)] = list(cand[src])
    else:
        nodes = out[free[int(rng.integers(len(free)))]]
        if move == 1:
            nodes[1:-1] = nodes[-2:0:-1]
        elif len(nodes) > 3:
            out.append([0, nodes.pop(-2), inst.depot_end])
    return out


def candidate_sequence(inst, cfg, seed, steps):
    """LNS-shaped candidates, each with how it was made: seeded
    destroy/repair moves from a current solution that follows some of them,
    mixed with exact repeats and route reorderings of earlier candidates,
    and variants of the latest candidate that change, add or reorder only
    routes that never charge."""
    rng = np.random.default_rng(seed)
    ctx = lns._Context(inst, cfg)
    current = [list(r.nodes) for r in lns.initial_solution(inst, rng).mtev_routes]
    seen = [current]
    yield "initial", current
    for _ in range(steps):
        draw = rng.random()
        made = "move"
        if draw < 0.2:
            made = "repeat"
            cand = seen[int(rng.integers(len(seen)))]
        elif draw < 0.3:
            made = "reorder"
            base = seen[int(rng.integers(len(seen)))]
            cand = [base[i] for i in rng.permutation(len(base))]
        elif draw < 0.5:
            made = "charge_free"
            cand = charge_free_variant(seen[-1], inst, cfg, rng)
            if cand is None:
                continue
        else:
            d_op = lns.DESTROY_OPS[int(rng.integers(len(lns.DESTROY_OPS)))]
            r_op = lns.REPAIR_OPS[int(rng.integers(len(lns.REPAIR_OPS)))]
            k = int(rng.integers(1, max(2, inst.n // 3) + 1))
            partial, removed = lns._DESTROY_FUNCS[d_op](current, ctx, rng, k)
            rebuilt = lns._REPAIR_FUNCS[r_op](lns._drop_empty(partial), removed, ctx, rng)
            if rebuilt is None:
                continue
            cand = lns._drop_empty(rebuilt)
            if rng.random() < 0.5:
                current = cand
        seen.append(cand)
        yield made, cand


def random_partition(inst, rng):
    """The customers in random order, cut into routes."""
    order = [int(u) for u in rng.permutation(inst.n) + 1]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, inst.n + 1),
                                             int(rng.integers(0, inst.n)), replace=False))
    return [[0, *order[a:b], inst.depot_end]
            for a, b in zip([0, *cuts], [*cuts, inst.n]) if b > a]


@pytest.mark.filterwarnings("ignore:gamma <= rho_t")
class TestRouteRecords:
    @staticmethod
    def check_records(inst, cfg, routes):
        """Every record holds what the model and bdp compute for its route."""
        ctx = lns._Context(inst, cfg)
        for r_idx, nodes in enumerate(routes):
            route = Route(r_idx, nodes)
            rec = ctx.patterns(nodes)
            assert ctx.patterns(list(nodes)) is rec
            times = mtev_arrival_times(route, inst)
            assert rec.times == times
            assert rec.times[-1] == inst.route_distance(nodes)
            res = bdp.enumerate_patterns(route, inst, max_edges=cfg.bdp_max_edges)
            assert rec.result == res
            union = 0
            for p in res.patterns:
                union |= p
            assert rec.charged == union
            assert bool(rec.charged) == (len(res.patterns) > 1 or union != 0)
            arcs = lns._record_arcs(rec, r_idx, route, inst)
            assert arcs == route_duties(r_idx, route, times, union, inst)
            if union:     # built once per record and index
                assert lns._record_arcs(rec, r_idx, route, inst) is arcs

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 14), seed=st.integers(0, 2**32 - 1),
           P=st.sampled_from([300.0, 900.0, 1500.0, 15000.0]),
           max_edges=st.sampled_from([2, SolverConfig.bdp_max_edges]))
    def test_float_distances(self, n, seed, P, max_edges):
        inst = generate_instance(n, seed=seed % 10**6, P=P)
        routes = random_partition(inst, np.random.default_rng(seed))
        self.check_records(inst, SolverConfig(bdp_max_edges=max_edges), routes)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 14), seed=st.integers(0, 2**32 - 1), top=st.integers(1, 6),
           P=st.sampled_from([4.0, 8.0, 15.0, 100.0]),
           max_edges=st.sampled_from([2, SolverConfig.bdp_max_edges]))
    def test_integer_distances(self, n, seed, top, P, max_edges):
        inst = tied_instance(n, seed, top, P, 10.0)
        routes = random_partition(inst, np.random.default_rng(seed))
        self.check_records(inst, SolverConfig(bdp_max_edges=max_edges), routes)


def memo_key(cand, inst, cfg):
    """The routes of a candidate that may charge, with their indices; None
    when some route has no feasible pattern, so that no memo is consulted."""
    routes = [Route(i, list(nodes)) for i, nodes in enumerate(cand)]
    if not all(bdp.enumerate_patterns(r, inst, max_edges=cfg.bdp_max_edges).feasible
               for r in routes):
        return None
    return tuple((i, tuple(nodes)) for i, nodes in enumerate(cand)
                 if may_charge(nodes, inst, cfg))


class TestCoordinationMemo:
    def test_memo_returns_the_fresh_outcome(self):
        # P and max_mct vary so that charge-free, charging and
        # uncoordinatable candidates all occur
        cfg = SolverConfig()
        seen = {"hit": 0, "miss": 0, "none": 0, "exact": 0, "heuristic": 0,
                "charge_free_hit": 0}
        for case in range(24):
            rng = np.random.default_rng(900 + case)
            n = int(rng.integers(5, 21))
            inst = generate_instance(n, seed=7000 + case,
                                     P=float(rng.choice([700.0, 1500.0, 4000.0])),
                                     max_mct=[0, 1, 2, n][case % 4])
            ctx = lns._Context(inst, cfg)
            last_key = None
            for made, cand in candidate_sequence(inst, cfg, seed=case, steps=30):
                routes = [Route(i, list(nodes)) for i, nodes in enumerate(cand)]
                key = memo_key(cand, inst, cfg)
                hit = key is not None and key in ctx.coordinated
                if made == "charge_free" and key is not None and key == last_key:
                    # the latest candidate had the same routes that may charge
                    assert hit
                got = lns._coordinate_routes(routes, ctx)
                want, kind = ref_coordinate(routes, inst, cfg)
                assert outcome_summary(got) == outcome_summary(want)
                assert len(ctx.coordinated) <= lns.COORDINATION_MEMO_SIZE
                seen["hit" if hit else "miss"] += 1
                # a hit that reuses a plan of routes that charge
                seen["charge_free_hit"] += hit and made == "charge_free" and key != ()
                seen[kind] += 1
                seen["none"] += got is None
                last_key = key
        assert all(count > 0 for count in seen.values()), seen

    def test_memo_stays_bounded_over_a_long_run(self, monkeypatch):
        inst = generate_instance(12, seed=61)
        lengths = []
        original = lns._coordinate_routes

        def spy(routes, ctx):
            out = original(routes, ctx)
            lengths.append(len(ctx.coordinated))
            return out

        monkeypatch.setattr(lns, "_coordinate_routes", spy)
        res = lns.run(inst, SolverConfig(iterations=300), rng=harness.run_seed(61, 0))
        assert res.iterations == 300
        assert len(lengths) > lns.COORDINATION_MEMO_SIZE
        assert max(lengths) == lns.COORDINATION_MEMO_SIZE

    @pytest.mark.parametrize("n, seed, P", [(8, 62, 1500.0), (15, 63, 900.0),
                                            (20, 64, 1500.0)])
    def test_run_is_unchanged_without_the_memo(self, monkeypatch, n, seed, P):
        inst = generate_instance(n, seed=seed, P=P)
        cfg = SolverConfig(iterations=120)
        memo = lns.run(inst, cfg, rng=harness.run_seed(seed, 0))
        monkeypatch.setattr(lns, "COORDINATION_MEMO_SIZE", 0)
        plain = lns.run(inst, cfg, rng=harness.run_seed(seed, 0))
        assert memo.log == plain.log
        assert memo.best.to_json_str() == plain.best.to_json_str()


# ---------------------------------------------------------------------------
# routes that fit the battery
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:gamma <= rho_t")
class TestChargeFreeShortcut:
    """A route that `bdp.fits` the battery charges nothing, so
    `_coordinate_routes` gives it `CHARGE_FREE` without a record, and
    `_charge_insertion` prices it without count tables. With `fits` always
    False, both take the long way, and a run makes the same moves."""

    @pytest.mark.parametrize("make, seed", [
        (lambda seed: generate_instance(20, seed=seed, P=15000.0), 71),   # charge-free
        (lambda seed: generate_instance(20, seed=seed, P=1500.0), 72),    # mixed
        (lambda seed: generate_instance(15, seed=seed, P=900.0), 73),     # mixed
        (lambda seed: tied_instance(12, seed, 5, 8.0, 10.0), 74),         # boundary
        (lambda seed: tied_instance(12, seed, 4, 15.0, 10.0), 75),        # boundary
    ])
    def test_run_is_unchanged_without_the_shortcut(self, monkeypatch, make, seed):
        inst = make(seed)
        cfg = SolverConfig(iterations=150)
        ties, fits = [], bdp.fits

        def spy(inst, length, dropped=0.0):
            ties.append(inst.rho_t * length == inst.P)
            return fits(inst, length, dropped)

        monkeypatch.setattr(bdp, "fits", spy)
        fast = lns.run(inst, cfg, rng=harness.run_seed(seed, 0))
        monkeypatch.setattr(bdp, "fits", lambda *args: False)
        slow = lns.run(inst, cfg, rng=harness.run_seed(seed, 0))
        assert fast.log == slow.log
        assert fast.best.to_json_str() == slow.best.to_json_str()
        if inst.P < 100.0:      # a boundary case meets routes that use the whole battery
            assert any(ties)

    @pytest.mark.parametrize("P", [900.0, 1500.0, 15000.0])
    def test_records_only_for_routes_that_may_charge(self, P):
        inst = generate_instance(20, seed=76, P=P)
        cfg = SolverConfig()
        for seed in range(4):
            routes = lns.initial_solution(inst, rng_at(seed)).mtev_routes
            ctx = lns._Context(inst, cfg)
            got = lns._coordinate_routes(routes, ctx)
            want, _ = ref_coordinate(routes, inst, cfg)
            assert outcome_summary(got) == outcome_summary(want)
            fit = [bdp.fits(inst, inst.route_distance(r.nodes)) for r in routes]
            assert set(ctx._records) == {tuple(r.nodes) for r, f in zip(routes, fit) if not f}
            for r, f in zip(routes, fit):
                if f:
                    assert bdp.enumerate_patterns(r, inst) == lns.CHARGE_FREE
            if P == 15000.0:
                assert ctx._records == {} and got.plan.mct_count == 0
