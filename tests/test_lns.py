import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmcevrp import bdp, harness, lns
from wmcevrp.config import SolverConfig
from wmcevrp.generator import generate_instance
from wmcevrp.model import (
    InfeasibleInstanceError,
    Solution,
    check_feasibility,
    make_route,
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
            assert 0 not in res.masks()

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
        lns._apply_insertion(routes, loads, u, r_idx, pos, inst)
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
        lns._apply_insertion(routes, loads, u, r_idx, pos, inst)
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
        return lns._detour(nodes, pos, inst)

    def worst(nodes, pos):
        saving = inst.rho_t * detour(nodes, pos)
        return saving + inst.rho_e if len(nodes) == 3 else saving

    return {
        "distance_removal": lambda rs, k: ref_metric_removal(rs, k, detour, every_route),
        "worst_removal": lambda rs, k: ref_metric_removal(rs, k, worst, every_route),
        "charge_removal": lambda rs, k: ref_metric_removal(
            rs, k, lambda nodes, pos: inst.rho_t * detour(nodes, pos), over_battery_first),
    }


def operator_case(n, seed, Q, P, slack):
    """A generated instance, a full solution and a partial one with its
    removed customers in random order.

    Customers join a random route with room, or open one. A customer whose
    demand exceeds Q rides alone, over capacity. The fleet cap is the
    partial route count plus `slack`.
    """
    rng = np.random.default_rng(seed)
    inst = generate_instance(n, seed, Q=Q, P=P)
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
                    "bdp_max_edges", "exact_cap", "mct_transfer_depletes"):
            assert key in data

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            SolverConfig.from_json({"iterations": 5, "typo": 1})


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
