import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmcevrp import harness, lns
from wmcevrp.config import SolverConfig
from wmcevrp.generator import generate_instance
from wmcevrp.model import (
    CONSTRAINT_FAMILIES,
    INSTANCE_FIELDS,
    ChargingDuty,
    Instance,
    Route,
    RouteStructureError,
    Solution,
    _duties_per_mct,
    build_schedule,
    check_feasibility,
    duty_order,
    evaluate_cost,
    finalize_solution,
    make_route,
    mtev_arrival_times,
    route_duties,
    route_energy_profile,
    routing_cost,
)

from conftest import bits, build_instance


def json_paths(value, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_paths(item, path + (key,))
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            yield from json_paths(item, path + (idx,))


def odd_values(*ids):
    """Strategy over values of the wrong type, size or finiteness."""
    return st.sampled_from([None, True, False, -1, 0, *ids, 1.0, 2.5, "x", "3", [], {}, [0],
                            [[0]], float("nan"), float("inf"), -float("inf"), 10**30,
                            10**400]).map(copy.deepcopy)


def mutate_json(doc, data, odd):
    """Apply one to three random edits to a JSON document: replace a value,
    drop a key or item, shorten or extend a list. Returns the new document."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        op = data.draw(st.sampled_from(["replace", "drop", "shorten", "extend"]))
        if not path:
            doc = data.draw(odd)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        if op == "drop":
            del parent[path[-1]]
        elif op == "shorten" and isinstance(target, list):
            del target[-1:]
        elif op == "extend" and isinstance(target, list):
            target.append(data.draw(odd))
        else:
            parent[path[-1]] = data.draw(odd)
    return doc


def replay_profile(P, rho_t, gamma, costs, bits):
    """Independent battery replay used as the oracle for profile tests."""
    level = P
    out = [level]
    for c, b in zip(costs, bits):
        level = min(level - rho_t * c + gamma * c * b, P)
        out.append(level)
    return out


# ---------------------------------------------------------------------------
# instance loading and validation
# ---------------------------------------------------------------------------

class TestInstance:
    def test_round_trip_preserves_fields(self, one_customer, tmp_path):
        data = one_customer.to_json()
        again = Instance.from_json(json.loads(json.dumps(data)))
        assert again.to_json() == data
        # numpy integers are valid input and are saved as JSON ints
        data.update(n=np.int64(1), max_mtev=np.int32(2), max_mct=np.int64(1),
                    demand=np.array([3], dtype=np.int64))
        inst = Instance.from_json(data)
        inst.save(tmp_path / "inst.json")
        again = Instance.load(tmp_path / "inst.json")
        assert again.to_json() == inst.to_json()
        assert [type(again.to_json()[k]) for k in ("n", "max_mtev", "max_mct")] == [int] * 3
        assert again.demand == [3]

    def test_to_json_writes_the_fields_as_plain_json(self):
        # numpy scalars in, exactly the instance fields as Python ints,
        # floats and lists out
        doc = generate_instance(4, seed=2).to_json()
        doc.update(n=np.int64(4), max_mtev=np.int32(3), P=np.float32(900), gamma=np.float64(2.5),
                   demand=np.array(doc["demand"], dtype=np.int64), dist=np.array(doc["dist"]))
        inst = Instance.from_json(doc)
        data = inst.to_json()
        assert tuple(data) == INSTANCE_FIELDS
        assert [type(data[k]) for k in ("n", "max_mtev", "max_mct")] == [int] * 3
        assert {type(data[k]) for k in ("P", "B", "Q", "rho_t", "rho_e", "rho_c", "gamma",
                                        "phi")} == {float}
        assert {type(d) for d in data["demand"]} == {int}
        assert {type(x) for row in data["dist"] for x in row} == {float}
        assert data["dist"] == inst.dist.tolist() and data["P"] == 900.0
        assert json.loads(json.dumps(data)) == data

    def test_rejects_asymmetric_matrix(self):
        dist = np.zeros((3, 3))
        dist[0, 1] = 3.0
        with pytest.raises(ValueError, match="symmetric"):
            Instance(n=1, dist=dist, demand=[1], P=10, B=10, Q=10, rho_t=1,
                     rho_e=1, rho_c=1, gamma=2, phi=1, max_mtev=1, max_mct=1)

    def test_rejects_missing_return_depot_clone(self):
        dist = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        with pytest.raises(ValueError, match="n\\+1"):
            Instance(n=1, dist=dist, demand=[1], P=10, B=10, Q=10, rho_t=1,
                     rho_e=1, rho_c=1, gamma=2, phi=1, max_mtev=1, max_mct=1)

    def test_warns_when_charging_cannot_gain(self):
        with pytest.warns(UserWarning, match="no net energy gain"):
            build_instance([[0, 5], [0, 0]], [1], gamma=0.5)

    def test_demand_length_checked(self):
        with pytest.raises(ValueError, match="demands"):
            build_instance([[0, 5], [0, 0]], [1, 2])

    @pytest.mark.parametrize("field, value, match", [
        ("P", float("nan"), "P must be finite"),
        ("P", float("inf"), "P must be finite"),
        ("B", float("inf"), "B must be finite"),
        ("Q", float("nan"), "Q must be finite"),
        ("rho_t", float("-inf"), "rho_t must be finite"),
        ("gamma", float("nan"), "gamma must be finite"),
        ("phi", float("inf"), "phi must be finite"),
        ("max_mct", 2.5, "max_mct must be an integer"),
        ("max_mtev", 2.0, "max_mtev must be an integer"),
        ("max_mct", True, "max_mct must be an integer"),
        ("max_mtev", False, "max_mtev must be an integer"),
    ])
    def test_rejects_bad_scalars(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            build_instance([[0, 5], [0, 0]], [1], **{field: value})

    @pytest.mark.parametrize("demand", [1.7, 2.0, True, float("nan"), "2"])
    def test_rejects_non_integer_demands(self, demand):
        with pytest.raises(ValueError, match="demands must be integers"):
            build_instance([[0, 5, 5], [0, 0, 5], [0, 0, 0]], [1, demand])

    def test_numpy_integer_demands_become_ints(self):
        inst = build_instance([[0, 5, 5], [0, 0, 5], [0, 0, 0]], np.array([1, 3]))
        assert inst.demand == [1, 3]
        assert all(type(d) is int for d in inst.demand)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_non_finite_distances(self, bad):
        with pytest.raises(ValueError, match="finite"):
            build_instance([[0, 5, bad], [0, 0, 5], [0, 0, 0]], [1, 1])

    @pytest.mark.parametrize("field, value, match", [
        ("n", "3", "n must be an integer"),
        ("n", True, "n must be an integer"),
        ("n", 3.0, "n must be an integer"),
        ("n", -1, "n must be an integer >= 0"),
        ("P", "x", "P must be a number"),
        ("rho_e", True, "rho_e must be a number"),
        ("B", None, "B must be a number"),
        ("Q", 10**400, "Q must be finite"),
        ("demand", 5, "demand must be a list"),
        ("demand", {"1": 1}, "demand must be a list"),
        ("dist", [[0, 1], [1]], "dist must be a matrix of numbers"),
        ("dist", [["0", "1"], ["1", "0"]], "dist must be a matrix of numbers"),
        ("dist", None, "dist must be a matrix of numbers"),
        ("dist", [[True, False], [False, True]], "dist must be a matrix of numbers"),
    ])
    def test_rejects_mistyped_json_fields(self, field, value, match):
        data = generate_instance(3, seed=1).to_json()
        data[field] = value
        with pytest.raises(ValueError, match=match):
            Instance.from_json(data)

    @pytest.mark.parametrize("data", [[], 5, None, "instance"])
    def test_rejects_non_object_json(self, data):
        with pytest.raises(ValueError, match="must be an object"):
            Instance.from_json(data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_instance_json_is_rejected_or_valid(self, data):
        # drop keys, swap types, NaN/inf, huge ints and bools, wrong matrix
        # shapes: from_json raises ValueError or returns a valid instance
        doc = mutate_json(generate_instance(3, seed=5).to_json(), data, odd_values(3, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # gamma <= rho_t is legal
            try:
                inst = Instance.from_json(doc)
            except ValueError:
                return
            inst.validate()
        assert inst.dist.shape == (inst.n + 2, inst.n + 2)
        assert all(type(d) is int for d in inst.demand)

    def test_generated_instances_validate(self):
        for seed in range(5):
            inst = generate_instance(12, seed=seed)
            inst.validate()
            again = Instance.from_json(json.loads(json.dumps(inst.to_json())))
            assert again.to_json() == inst.to_json()


# ---------------------------------------------------------------------------
# cost evaluation
# ---------------------------------------------------------------------------

class TestEvaluateCost:
    def test_single_route_with_acquisition(self, one_customer):
        sol = Solution.from_routes([make_route(0, [1], one_customer)])
        assert evaluate_cost(sol, one_customer) == 110.0

    def test_empty_solution_costs_nothing(self, one_customer):
        assert evaluate_cost(Solution(), one_customer) == 0.0

    def test_malformed_route_raises(self, one_customer):
        sol = Solution.from_routes([Route(0, [0, 1])])
        with pytest.raises(RouteStructureError):
            evaluate_cost(sol, one_customer)

    def test_empty_route_is_free(self, one_customer):
        sol = Solution.from_routes([Route(0, [0, 2])])
        assert evaluate_cost(sol, one_customer) == 0.0

    def test_cost_decomposition(self):
        for seed in range(4):
            inst = generate_instance(8, seed=seed)
            res = lns.run(inst, SolverConfig(iterations=40), rng=harness.run_seed(seed, 0))
            sol = res.best
            dist_term = sum(inst.rho_t * inst.route_distance(r.nodes)
                            for r in sol.mtev_routes)
            e_term = inst.rho_e * sum(r.serves_customers() for r in sol.mtev_routes)
            c_term = inst.rho_c * sum(r.serves_customers() for r in sol.mct_routes)
            assert dist_term >= 0 and e_term >= 0 and c_term >= 0
            assert evaluate_cost(sol, inst) == pytest.approx(dist_term + e_term + c_term)

    def test_vehicle_relabeling_invariance(self):
        inst = generate_instance(8, seed=11)
        res = lns.run(inst, SolverConfig(iterations=60), rng=harness.run_seed(11, 0))
        sol = res.best
        shuffled = sol.copy()
        shuffled.mtev_routes = shuffled.mtev_routes[::-1]
        shuffled.charge_assign = shuffled.charge_assign[::-1]
        shuffled.mtev_times = shuffled.mtev_times[::-1]
        shuffled.mtev_battery = shuffled.mtev_battery[::-1]
        shuffled.used_mtev = shuffled.used_mtev[::-1]
        assert evaluate_cost(shuffled, inst) == pytest.approx(evaluate_cost(sol, inst))
        assert check_feasibility(shuffled, inst).passed == check_feasibility(sol, inst).passed


# ---------------------------------------------------------------------------
# battery profile
# ---------------------------------------------------------------------------

def _three_edge_instance(**params):
    # route 0-1-2-3 has edge lengths [4, 4, 4]
    return build_instance([[0, 4, 4], [0, 0, 4], [0, 0, 0]], [1, 1], **params)


class TestEnergyProfile:
    def test_discharge_only(self):
        inst = _three_edge_instance(P=10.0)
        route = make_route(0, [1, 2], inst)
        assert route_energy_profile(route, 0, inst) == [10, 6, 2, -2]

    def test_clamped_recharge(self):
        inst = _three_edge_instance(P=10.0, gamma=2.0)
        route = make_route(0, [1, 2], inst)
        trace = route_energy_profile(route, bits("010"), inst)
        assert trace == [10, 6, 10, 6]
        assert trace == replay_profile(10.0, 1.0, 2.0, [4, 4, 4], [0, 1, 0])

    def test_zero_length_route(self):
        inst = _three_edge_instance(P=10.0)
        route = Route(0, [0, inst.depot_end])
        assert route_energy_profile(route, 0, inst) == [10.0, 10.0]

    @pytest.mark.parametrize("mask", [1 << 3, -1, True, 1.0, [0, 1, 0]],
                             ids=["past_last_edge", "negative", "bool", "float", "bit_list"])
    def test_not_a_mask_raises(self, mask):
        inst = _three_edge_instance()
        route = make_route(0, [1, 2], inst)
        with pytest.raises(RouteStructureError):
            route_energy_profile(route, mask, inst)

    @settings(max_examples=60, deadline=None)
    @given(
        costs=st.lists(st.floats(0.1, 50), min_size=1, max_size=8),
        bits=st.data(),
        cap=st.floats(5, 60),
        gain=st.floats(1.1, 3.0),
    )
    def test_matches_independent_replay(self, costs, bits, cap, gain):
        n = len(costs)
        pattern = bits.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        core = np.zeros((n + 1, n + 1))
        for e, c in enumerate(costs):
            core[e, e + 1] = c
        # fill remaining pairs so validation passes
        core[core == 0] = 1.0
        np.fill_diagonal(core, 0.0)
        inst = build_instance(core, [1] * n, P=cap, gamma=gain)
        route = Route(0, list(range(n + 1)) + [inst.depot_end])
        costs_eff = [float(inst.dist[i, j]) for i, j in route.edges()]
        mask = sum(b << e for e, b in enumerate(pattern))
        got = route_energy_profile(route, mask, inst)
        want = replay_profile(cap, 1.0, gain, costs_eff, pattern + [0])
        assert got == want
        assert max(got) <= cap


# ---------------------------------------------------------------------------
# charging duties
# ---------------------------------------------------------------------------

def ref_route_duties(r_idx, route, times, mask, inst):
    """`route_duties` as it was when it scanned every edge of the route and
    built each duty by keyword."""
    duties = []
    for e, (i, j) in enumerate(route.edges()):
        if (mask >> e) & 1:
            c = float(inst.dist[i, j])
            duties.append(ChargingDuty(
                mtev=r_idx, edge=e, tail=i, head=j,
                start=times[e], end=times[e + 1],
                distance=c, transfer=inst.gamma * c,
            ))
    return duties


def float_bits(value):
    """A field as a value that compares equal only when the two floats have
    the same bits: -0.0 differs from 0.0."""
    return value.hex() if isinstance(value, float) else value


class TestRouteDuties:
    @pytest.mark.filterwarnings("ignore:gamma <= rho_t")
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), gamma=st.floats(0.1, 10.0), r_idx=st.integers(0, 5),
           data=st.data())
    def test_same_duties_as_the_edge_scan(self, seed, gamma, r_idx, data):
        """Routes of 0 to 9 edges over any nodes, and masks that may set
        bits past the last edge: the set-bit builder gives the scan's duties,
        every field equal and every float the same bits."""
        inst = generate_instance(9, seed=seed, gamma=gamma)
        nodes = data.draw(st.lists(st.integers(0, inst.depot_end), min_size=1, max_size=10))
        route = Route(r_idx, nodes)
        times = data.draw(st.lists(st.floats(-1e4, 1e4), min_size=len(nodes),
                                   max_size=len(nodes)))
        mask = data.draw(st.integers(0, (1 << 12) - 1))
        got = route_duties(r_idx, route, times, mask, inst)
        want = ref_route_duties(r_idx, route, times, mask, inst)
        assert [tuple(map(float_bits, d)) for d in got] == \
            [tuple(map(float_bits, d)) for d in want]
        assert all(type(d) is ChargingDuty for d in got)

    @settings(max_examples=200, deadline=None)
    @given(keys=st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.5, 2.0, 1e-7]),
                                   st.integers(0, 3), st.integers(0, 3)), max_size=12))
    def test_order_is_the_key_tuple(self, keys):
        """Sorting by `duty_order` equals sorting by (start, mtev, edge)
        tuples, ties included; the other fields tell tied duties apart."""
        duties = [ChargingDuty(mtev, edge, k, k + 1, start, start + 1.0, 1.0, 2.0)
                  for k, (start, mtev, edge) in enumerate(keys)]
        assert [duty_order(d) for d in duties] == keys
        assert sorted(duties, key=duty_order) == \
            sorted(duties, key=lambda d: (d.start, d.mtev, d.edge))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def _wait_instance(c02=3.0):
    # MTEV travels 0-1-2-3 (2 then 3 units); truck cuts straight to node 2
    return build_instance([[0, 2, c02], [0, 0, 3], [0, 0, 0]], [1, 1], P=100.0)


def _simulate_mct(inst, mtev_times, route_nodes, duty_edges):
    """Earliest-arrival truck simulation oracle; duty_edges maps arc -> tail time."""
    t = 0.0
    times = [0.0]
    for i, j in zip(route_nodes, route_nodes[1:]):
        depart = t
        if (i, j) in duty_edges:
            depart = max(t, duty_edges[(i, j)])
        t = depart + float(inst.dist[i, j])
        times.append(t)
    return times


class TestBuildSchedule:
    def test_mtev_earliest_arrival(self, one_customer):
        sol = Solution.from_routes([make_route(0, [1], one_customer)])
        out = build_schedule(sol, one_customer)
        assert out.mtev_times == [[0.0, 5.0, 10.0]]

    def test_mct_waits_for_its_vehicle(self):
        inst = _wait_instance()
        sol = Solution.from_routes([make_route(0, [1, 2], inst)])
        sol.charge_assign[0][2] = 0          # charge the 2 -> depot_end arc
        sol.mct_routes = [Route(0, [0, 2, inst.depot_end])]
        out = build_schedule(sol, inst)
        assert out.mtev_times[0] == [0.0, 2.0, 5.0, 8.0]
        assert out.mct_times[0] == [0.0, 3.0, 8.0]
        oracle = _simulate_mct(inst, out.mtev_times, [0, 2, inst.depot_end],
                               {(2, inst.depot_end): 5.0})
        assert out.mct_times[0] == oracle

    def test_late_mct_is_flagged(self):
        inst = _wait_instance(c02=7.0)
        sol = Solution.from_routes([make_route(0, [1, 2], inst)])
        sol.charge_assign[0][2] = 0
        sol.mct_routes = [Route(0, [0, 2, inst.depot_end])]
        out = build_schedule(sol, inst)
        report = check_feasibility(out, inst)
        assert not report.passed
        assert "sync" in report.families()

    def test_monotone_arrival_times(self):
        for seed in range(3):
            inst = generate_instance(10, seed=seed)
            res = lns.run(inst, SolverConfig(iterations=40), rng=harness.run_seed(seed, 1))
            sol = res.best
            for route, times in zip(sol.mtev_routes, sol.mtev_times):
                for k, (i, j) in enumerate(route.edges()):
                    assert times[k + 1] >= times[k]
                    if inst.dist[i, j] > 0:
                        assert times[k + 1] > times[k]
            for route, times in zip(sol.mct_routes, sol.mct_times):
                for k, (i, j) in enumerate(route.edges()):
                    assert times[k + 1] >= times[k]
                    if inst.dist[i, j] > 0:
                        assert times[k + 1] > times[k]


# ---------------------------------------------------------------------------
# feasibility checker
# ---------------------------------------------------------------------------

class TestCheckFeasibility:
    def test_unconstrained_route_passes(self, one_customer):
        sol = finalize_solution(Solution.from_routes([make_route(0, [1], one_customer)]),
                                one_customer)
        assert check_feasibility(sol, one_customer).passed

    def test_battery_violation_on_second_edge(self):
        inst = build_instance([[0, 5], [0, 0]], [1], P=5 * 1.9)
        sol = finalize_solution(Solution.from_routes([make_route(0, [1], inst)]), inst)
        report = check_feasibility(sol, inst)
        assert not report.passed
        v = [x for x in report.violations if x.family == "energy-mtev"]
        assert len(v) == 1
        assert "edge 2" in v[0].detail
        assert v[0].magnitude == pytest.approx(0.5)

    def test_capacity_violation(self):
        inst = build_instance([[0, 5, 5], [0, 0, 5], [0, 0, 0]], [3, 3], Q=5.0)
        sol = finalize_solution(Solution.from_routes([make_route(0, [1, 2], inst)]), inst)
        report = check_feasibility(sol, inst)
        assert "capacity" in report.families()
        assert any(v.magnitude == pytest.approx(1.0) for v in report.violations
                   if v.family == "capacity")

    def test_coverage_duplicate_and_missing(self):
        inst = build_instance([[0, 5, 5], [0, 0, 5], [0, 0, 0]], [1, 1])
        sol = finalize_solution(
            Solution.from_routes([make_route(0, [1], inst), make_route(1, [1], inst)]),
            inst)
        fams = check_feasibility(sol, inst).families()
        assert "coverage" in fams

    def test_checker_matches_profile_sign(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            inst = generate_instance(n, seed=int(rng.integers(10_000)),
                                     P=float(rng.uniform(600, 2400)))
            order = [int(u) for u in rng.permutation(inst.n) + 1]
            sol = Solution.from_routes([make_route(0, order, inst)])
            sol = finalize_solution(sol, inst)
            report = check_feasibility(sol, inst)
            profile = route_energy_profile(sol.mtev_routes[0], 0, inst)
            assert ("energy-mtev" in report.families()) == (min(profile) < 0)

    def test_dropping_charging_never_fixes(self):
        # charging is a pure gain: a stripped solution can break only through
        # vehicle energy, and a charge-free feasible route set stays feasible
        for seed in range(6):
            inst = generate_instance(6, seed=seed, P=900.0)
            res = lns.run(inst, SolverConfig(iterations=60), rng=harness.run_seed(seed, 2))
            sol = res.best
            assert check_feasibility(sol, inst).passed
            stripped = sol.copy()
            stripped.charge_assign = [[None] * len(a) for a in stripped.charge_assign]
            stripped.mct_routes = []
            stripped.mct_times = []
            stripped.mct_battery = []
            stripped.used_mct = []
            stripped = finalize_solution(stripped, inst)
            report = check_feasibility(stripped, inst)
            assert report.families() <= {"energy-mtev"}
            had_charging = any(a is not None for row in sol.charge_assign for a in row)
            if not had_charging:
                assert report.passed

    def test_usage_flags_checked(self, one_customer):
        sol = finalize_solution(Solution.from_routes([make_route(0, [1], one_customer)]),
                                one_customer)
        sol.used_mtev = [False]
        assert "usage" in check_feasibility(sol, one_customer).families()

    def test_fleet_caps_checked(self):
        # six single-customer routes need no charging at this P, and two
        # idle trucks drive through a customer without a duty; each fleet
        # is over its cap by the excess of deployed vehicles
        inst = generate_instance(6, seed=1, P=15000.0, max_mtev=2, max_mct=1)
        sol = Solution.from_routes([make_route(u - 1, [u], inst) for u in inst.customers])
        sol.mct_routes = [make_route(t, [1], inst) for t in range(2)]
        sol.mct_routes.append(Route(2, [0, inst.depot_end]))     # not deployed
        report = check_feasibility(finalize_solution(sol, inst), inst)
        assert report.families() == {"usage"}
        assert sorted(v.magnitude for v in report.violations) == [1, 4]
        inst.max_mtev, inst.max_mct = 6, 2
        assert check_feasibility(finalize_solution(sol, inst), inst).passed


class TestCheckerTotality:
    """Malformed solutions yield findings, never exceptions."""

    @pytest.fixture(scope="class")
    def solved(self):
        inst = generate_instance(6, seed=3, P=900.0)
        res = lns.run(inst, SolverConfig(iterations=60), rng=harness.run_seed(3, 0))
        assert res.best.mct_routes and check_feasibility(res.best, inst).passed
        return inst, res.best

    @pytest.mark.parametrize("fleet", ["mtev", "mct"])
    @pytest.mark.parametrize("offset", [5, None])
    def test_node_id_out_of_range(self, solved, fleet, offset):
        inst, best = solved
        bad = -1 if offset is None else inst.n + offset
        sol = best.copy()
        routes = sol.mtev_routes if fleet == "mtev" else sol.mct_routes
        routes[0].nodes.insert(1, bad)
        report = check_feasibility(sol, inst)
        assert any(v.family == "flow" and v.vehicle == f"{fleet}:0"
                   for v in report.violations)

    @pytest.mark.parametrize("truck", [True, False])
    def test_bool_truck_id_is_unknown(self, solved, truck):
        inst, best = solved
        sol = best.copy()
        # a second truck makes index 1 (== True) valid, so only the type can
        # reject it
        sol.mct_routes.append(sol.mct_routes[0].copy())
        sol.mct_times.append(list(sol.mct_times[0]))
        sol.mct_battery.append(list(sol.mct_battery[0]))
        sol.used_mct.append(True)
        row = sol.charge_assign[0]
        e = next(k for k, a in enumerate(row) if a is not None)
        row[e] = truck
        report = check_feasibility(sol, inst)
        assert any(v.family == "sync" and "unknown truck" in v.detail
                   for v in report.violations)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_solution_json_is_rejected_or_checked(self, solved, data):
        # drop keys, swap types, wrong list lengths, odd ids and numbers: the
        # parser raises ValueError or the checker reports, nothing else
        inst, best = solved
        doc = mutate_json(best.to_json(), data, odd_values(inst.n + 1, inst.n + 5))
        try:
            sol = Solution.from_json(doc)
        except ValueError:
            return
        for depletes in (True, False):
            report = check_feasibility(sol, inst, depletes)
            str(report)
            assert report.families() <= set(CONSTRAINT_FAMILIES)

    def test_non_integer_node_ids(self, solved):
        inst, best = solved
        sol = best.copy()
        sol.mtev_routes[0].nodes[1] = "x"
        sol.mct_routes[0].nodes[0] = 0.0
        report = check_feasibility(sol, inst)
        assert {v.vehicle for v in report.violations if v.family == "flow"} == {"mtev:0", "mct:0"}


def _alignment_case():
    """Two MTEVs charge on the path 0-1-2-3-depot of one truck: MTEV 0 on
    1->2 and MTEV 1 on 3->depot. MTEV 0 is stored as reaching node 1 at
    t = 2, one unit after its earliest arrival."""
    inst = build_instance([[0, 1, 2, 3.5], [0, 0, 1, 2], [0, 0, 0, 1], [0, 0, 0, 0]],
                          [1, 1, 1], P=100.0, B=1000.0, Q=10.0, rho_t=1.0, rho_e=1.0,
                          rho_c=1.0, gamma=2.0, phi=1.0)
    end = inst.depot_end
    sol = Solution.from_routes([Route(0, [0, 1, 2, end]), Route(1, [0, 3, end])])
    sol.charge_assign[0][1] = 0
    sol.charge_assign[1][1] = 0
    sol.mct_routes = [Route(0, [0, 1, 2, 3, end])]
    sol.mtev_times = [[0.0, 2.0, 3.0, 5.0], [0.0, 3.5, 7.0]]
    return inst, sol


def _findings(report):
    return [(v.family, v.vehicle, v.detail, v.magnitude) for v in report.violations]


class TestTruckAlignment:
    def test_derived_truck_waits_on_stored_mtev_times(self):
        # the truck cannot leave node 1 before its MTEV reaches it at t = 2,
        # so it reaches node 3 at t = 4, after the other MTEV's t = 3.5
        inst, sol = _alignment_case()
        assert _findings(check_feasibility(sol, inst)) == [
            ("sync", "mct:0", "arrives at node 3 after its MTEV (arc (3,4))", 0.5)]

    def test_truck_may_not_leave_a_charging_arc_early(self):
        # on time at both tails, but ahead of its MTEV at both heads
        inst, sol = _alignment_case()
        sol.mct_times = [[0.0, 1.0, 2.0, 3.0, 6.5]]
        assert _findings(check_feasibility(sol, inst)) == [
            ("sync", "mct:0", "reaches node 2 before its MTEV (arc (1,2))", 1.0),
            ("sync", "mct:0", "reaches node 4 before its MTEV (arc (3,4))", 0.5)]

    def test_waiting_truck_passes(self):
        inst, sol = _alignment_case()
        sol.mct_times = [[0.0, 1.0, 3.0, 4.0, 7.5]]
        sol.mtev_times[1] = [0.0, 4.0, 7.5]
        assert check_feasibility(sol, inst).passed


class TestDutyFindings:
    """The checker rebuilds each truck's duties from the charge assignment."""

    def _one_truck(self, assign, truck_nodes):
        # MTEV 0-1-2-3 with a truck on `truck_nodes`
        inst = _wait_instance()
        sol = Solution.from_routes([make_route(0, [1, 2], inst)])
        sol.charge_assign[0] = assign
        sol.mct_routes = [Route(0, truck_nodes)]
        return inst, sol

    def test_untraversed_duty_arc(self):
        inst, sol = self._one_truck([None, None, 0], [0, 1, 3])
        assert _findings(check_feasibility(sol, inst)) == [
            ("sync", "mct:0", "assigned arc (2,3) is never traversed", 0.0)]

    def test_short_assignment_row(self):
        inst, sol = self._one_truck([None, None], [0, 2, 3])
        assert _findings(check_feasibility(sol, inst)) == [
            ("sync", "mtev:0", "charge assignment length does not match edge count", 0.0)]

    @pytest.mark.parametrize("assign", [[None, None], [None, None, 0, None], None],
                             ids=["short", "long", "missing"])
    def test_schedule_refuses_a_row_of_another_length(self, assign):
        # the checker reports the row (`test_short_assignment_row`); the
        # scheduler has no edge count to replay it against. None: no row at all
        inst, sol = self._one_truck(assign, [0, 2, 3])
        if assign is None:
            sol.charge_assign = []
            assert _findings(check_feasibility(sol, inst)) == [
                ("sync", "mtev:0", "charge assignment length does not match edge count", 0.0)]
        with pytest.raises(RouteStructureError, match="charge assignment of route 0"):
            build_schedule(sol, inst)

    def test_entries_past_the_edges_add_no_duty(self):
        # entry 3 names the truck and entry 4 an unknown one; neither is an edge
        inst, sol = self._one_truck([None, None, None, 0, 99], [0, 2, 3])
        assert _duties_per_mct(sol, inst, [mtev_arrival_times(sol.mtev_routes[0], inst)]) \
            == ([[]], [])
        assert _findings(check_feasibility(sol, inst)) == [
            ("sync", "mtev:0", "charge assignment length does not match edge count", 0.0)]


def _strip_times(sol, fleets):
    doc = sol.to_json()
    for fleet in fleets:
        for entry in doc[fleet]:
            del entry["arrival_times"]
    return Solution.from_json(doc)


class TestDerivedTimes:
    """Stored and derived schedules of solver output give one verdict."""

    @pytest.fixture(scope="class")
    def solved(self):
        cases = []
        for seed in range(10):
            inst = generate_instance(6 + seed, seed=seed, P=900.0)
            res = lns.run(inst, SolverConfig(iterations=40), rng=harness.run_seed(seed, 0))
            cases.append((inst, res.best))
        assert sum(bool(best.mct_routes) for _, best in cases) >= 5
        return cases

    def test_stripped_times_keep_the_findings(self, solved):
        for inst, best in solved:
            # without its charging the same routes have energy findings too
            uncharged = best.copy()
            uncharged.charge_assign = [[None] * len(a) for a in uncharged.charge_assign]
            for sol in (best, uncharged):
                for depletes in (True, False):
                    stored = _findings(check_feasibility(sol, inst, depletes))
                    for fleets in (["mct"], ["mtev"], ["mtev", "mct"]):
                        bare = _strip_times(sol, fleets)
                        assert _findings(check_feasibility(bare, inst, depletes)) == stored
            assert _findings(check_feasibility(best, inst)) == []

    def test_schedule_matches_independent_simulation(self, solved):
        for inst, best in solved:
            out = build_schedule(best, inst)
            for c_idx, route in enumerate(best.mct_routes):
                duty_edges = {
                    (i, j): best.mtev_times[r][e]
                    for r, (mtev, row) in enumerate(zip(best.mtev_routes, best.charge_assign))
                    for e, ((i, j), a) in enumerate(zip(mtev.edges(), row)) if a == c_idx
                }
                oracle = _simulate_mct(inst, best.mtev_times, route.nodes, duty_edges)
                assert out.mct_times[c_idx] == oracle == best.mct_times[c_idx]


# ---------------------------------------------------------------------------
# solution serialization
# ---------------------------------------------------------------------------

class TestSolutionJson:
    def test_round_trip(self):
        inst = generate_instance(6, seed=2, P=900.0)
        res = lns.run(inst, SolverConfig(iterations=50), rng=harness.run_seed(2, 0))
        sol = res.best
        again = Solution.from_json(json.loads(sol.to_json_str()))
        assert again.to_json_str() == sol.to_json_str()
        assert check_feasibility(again, inst).passed

    def test_schedule_times_survive(self):
        inst = build_instance([[0, 5], [0, 0]], [1])
        sol = finalize_solution(Solution.from_routes([make_route(0, [1], inst)]), inst)
        data = sol.to_json()
        assert data["mtev"][0]["arrival_times"] == [0.0, 5.0, 10.0]
        assert data["mtev"][0]["edges"][0] == {"tail": 0, "head": 1, "mct_id": None}


def test_arrival_times_helper(one_customer):
    route = make_route(0, [1], one_customer)
    assert mtev_arrival_times(route, one_customer) == [0.0, 5.0, 10.0]


def test_routing_cost_counts_only_serving_routes(one_customer):
    routes = [make_route(0, [1], one_customer), Route(1, [0, 2])]
    assert routing_cost(routes, one_customer) == 110.0
