"""Exhaustive global solver for tiny instances, used as ground truth in tests.

Enumerates every assignment of customers to ordered routes, every feasible
charging pattern per route (by full replay, not the DP sweep), and every
truck assignment, keeping the global cost minimum. Complexity is a sum over
ordered set partitions, so this is only viable for a handful of customers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import bdp, coordination
from .model import Instance, Route, Solution, routing_cost

NODE_BUDGET = 5_000_000               # partition-tree nodes


@dataclass
class OracleResult:
    solution: Solution | None
    cost: float
    optimal: bool                     # enumeration completed within NODE_BUDGET
    feasible: bool
    counts: dict = field(default_factory=dict)

    @property
    def mtev_used(self) -> int:
        return sum(self.solution.used_mtev) if self.solution else 0

    @property
    def mct_used(self) -> int:
        return sum(self.solution.used_mct) if self.solution else 0


def solve_exact(inst: Instance, max_customers: int = 6) -> OracleResult:
    """Provable optimum by complete enumeration; refuses instances with more
    than max_customers customers."""
    if inst.n > max_customers:
        raise ValueError(
            f"instance has {inst.n} customers, oracle limit is {max_customers}"
        )
    customers = list(inst.customers)
    total_demand = sum(inst.demand)

    best: list = [None]               # (cost, routes, CoordinationResult)
    counts = {"partition_nodes": 0, "leaves": 0, "coordinated": 0, "pattern_calls": 0}
    truncated = [False]
    pattern_memo: dict[tuple[int, ...], bdp.BdpResult] = {}
    rows = inst.dist.tolist()         # the truck legs of every coordination

    if any(d > inst.Q for d in inst.demand) or (inst.max_mtev == 0 and customers):
        return OracleResult(None, float("inf"), True, False, counts)

    def patterns_of(nodes: tuple[int, ...]) -> bdp.BdpResult:
        hit = pattern_memo.get(nodes)
        if hit is None:
            counts["pattern_calls"] += 1
            hit = bdp.brute_force_patterns(Route(0, list(nodes)), inst)
            pattern_memo[nodes] = hit
        return hit

    def evaluate(parts: list[list[int]]) -> None:
        counts["leaves"] += 1
        routes = [Route(i, [0, *part, inst.depot_end]) for i, part in enumerate(parts)]
        fixed = routing_cost(routes, inst)
        if best[0] is not None and fixed >= best[0][0]:
            return
        results = []
        for route in routes:
            res = patterns_of(tuple(route.nodes))
            if not res.feasible:
                return
            results.append(res)
        counts["coordinated"] += 1
        outcome = coordination.coordinate_exact(routes, results, inst, node_budget=10**9,
                                                rows=rows, fixed=fixed)
        if outcome is None:
            return
        if best[0] is None or outcome.cost < best[0][0] - 1e-9:
            best[0] = (outcome.cost, routes, outcome)

    def rec(idx: int, parts: list[list[int]], loads: list[int], target_k: int) -> None:
        if truncated[0]:
            return
        counts["partition_nodes"] += 1
        if counts["partition_nodes"] > NODE_BUDGET:
            truncated[0] = True
            return
        if idx == len(customers):
            if len(parts) == target_k:
                evaluate([list(p) for p in parts])
            return
        u = customers[idx]
        du = inst.demand_of(u)
        for p_idx, part in enumerate(parts):
            if loads[p_idx] + du > inst.Q:
                continue
            loads[p_idx] += du
            for pos in range(len(part) + 1):
                part.insert(pos, u)
                rec(idx + 1, parts, loads, target_k)
                part.pop(pos)
            loads[p_idx] -= du
        if len(parts) < target_k:
            parts.append([u])
            loads.append(du)
            rec(idx + 1, parts, loads, target_k)
            parts.pop()
            loads.pop()

    if not customers:
        evaluate([])
    else:
        k_min = max(1, math.ceil(total_demand / inst.Q))
        for k in range(k_min, inst.max_mtev + 1):
            if best[0] is not None and inst.rho_e * k >= best[0][0]:
                break
            rec(0, [], [], k)
            if truncated[0]:
                break

    if best[0] is None:
        return OracleResult(None, float("inf"), not truncated[0], False, counts)
    cost, routes, outcome = best[0]
    solution = coordination.assemble_solution(routes, outcome, inst)
    return OracleResult(solution, solution.total_cost, not truncated[0], True, counts)
