import dataclasses

import numpy as np
import pytest

from wmcevrp import harness, lns
from wmcevrp.config import SolverConfig
from wmcevrp.generator import generate_instance
from wmcevrp.model import Instance, check_feasibility
from wmcevrp.oracle import solve_exact

from conftest import build_instance


class TestSolveExact:
    def test_single_customer_closed_form(self, one_customer):
        res = solve_exact(one_customer)
        assert res.optimal and res.feasible
        assert res.cost == 1.0 * (5 + 5) + 100.0
        assert res.mtev_used == 1 and res.mct_used == 0

    def test_no_customers_costs_nothing(self):
        inst = build_instance([[0]], [])
        res = solve_exact(inst)
        assert res.optimal and res.feasible
        assert res.cost == 0.0 and res.mtev_used == 0 and res.mct_used == 0

    def test_split_beats_charged_consolidation(self):
        # one combined route would need a charging truck (950 > P = 900);
        # hand enumeration: combined 950 + 1000 + 2000 = 3950,
        # split 800 + 800 + 2000 = 3600, so two vehicles and no truck win
        inst = build_instance(
            [[0, 400, 400], [0, 0, 150], [0, 0, 0]], [1, 1],
            P=900.0, rho_e=1000.0, rho_c=2000.0, gamma=2.0,
        )
        res = solve_exact(inst)
        assert res.cost == 3600.0
        assert res.mtev_used == 2 and res.mct_used == 0

    def test_never_above_search_result(self):
        for seed in (60, 61, 62):
            inst = generate_instance(5, seed=seed)
            res = lns.run(inst, SolverConfig(iterations=150), rng=harness.run_seed(seed, 0))
            orc = solve_exact(inst)
            assert orc.cost <= res.best_cost + 1e-9

    def test_relabeling_customers_keeps_cost(self):
        inst = generate_instance(4, seed=70, P=900.0)
        perm = [3, 1, 4, 2]     # new label of customer i is perm[i-1]
        size = inst.n + 2
        mapping = {0: 0, size - 1: size - 1}
        for i, p in enumerate(perm, start=1):
            mapping[i] = p
        dist = np.zeros_like(inst.dist)
        for a in range(size):
            for b in range(size):
                dist[mapping[a], mapping[b]] = inst.dist[a, b]
        demand = [0] * inst.n
        for i, p in enumerate(perm, start=1):
            demand[p - 1] = inst.demand[i - 1]
        relabeled = Instance(n=inst.n, dist=dist, demand=demand, P=inst.P, B=inst.B,
                             Q=inst.Q, rho_t=inst.rho_t, rho_e=inst.rho_e,
                             rho_c=inst.rho_c, gamma=inst.gamma, phi=inst.phi,
                             max_mtev=inst.max_mtev, max_mct=inst.max_mct)
        assert solve_exact(relabeled).cost == pytest.approx(solve_exact(inst).cost)

    def test_chargeless_optimum_unaffected_by_truck_ban(self):
        inst = build_instance(
            [[0, 400, 400], [0, 0, 150], [0, 0, 0]], [1, 1],
            P=900.0, rho_e=1000.0, rho_c=2000.0, gamma=2.0,
        )
        free = solve_exact(inst)
        banned = solve_exact(dataclasses.replace(inst, max_mct=0))
        assert free.mct_used == 0
        assert banned.cost == pytest.approx(free.cost)

    def test_solution_passes_all_checks(self):
        for seed in (80, 81):
            inst = generate_instance(5, seed=seed, P=900.0)
            res = solve_exact(inst)
            assert check_feasibility(res.solution, inst).passed
            assert res.solution.total_cost == pytest.approx(res.cost)

    def test_refuses_oversized_instances(self):
        inst = generate_instance(7, seed=1)
        with pytest.raises(ValueError, match="oracle limit"):
            solve_exact(inst)
        assert solve_exact(inst, max_customers=7).feasible

    def test_detects_impossible_demand(self):
        inst = build_instance([[0, 5], [0, 0]], [9], Q=5.0)
        res = solve_exact(inst)
        assert not res.feasible
        assert res.solution is None
        assert res.cost == float("inf")

    def test_counts_reported(self):
        inst = generate_instance(4, seed=90)
        res = solve_exact(inst)
        assert res.counts["leaves"] > 0
        assert res.counts["partition_nodes"] >= res.counts["leaves"]
