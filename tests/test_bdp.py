import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmcevrp import bdp
from wmcevrp.bdp import (
    BdpResult,
    ChargePattern,
    RouteClass,
    brute_force_patterns,
    enumerate_patterns,
    greedy_fallback_pattern,
    min_charge_count,
    preprocess_route,
    prune_supersets,
)
from wmcevrp.generator import generate_instance
from wmcevrp.model import Route, make_route, route_energy_profile

from conftest import build_instance


def edge_instance(costs, **params):
    """Instance plus a path 0,1,..,m whose edges have the given lengths.

    The path ends at a customer on purpose: pattern search only looks at
    edges, and this keeps every edge length free to choose (the return-depot
    clone would tie the last edge to the first otherwise).
    """
    m = len(costs)
    core = np.ones((m + 1, m + 1))
    for e, c in enumerate(costs):
        core[e, e + 1] = c
    np.fill_diagonal(core, 0.0)
    inst = build_instance(core, [1] * m, **params)
    route = Route(0, list(range(m + 1)))
    actual = [float(inst.dist[i, j]) for i, j in route.edges()]
    assert actual == [float(c) for c in costs]
    return inst, route


def oracle_minimal_patterns(route, inst):
    """All-mask replay through the public battery profile, then keep minimal."""
    m = len(route.edges())
    feasible = []
    for mask in range(1 << m):
        bits = [(mask >> e) & 1 for e in range(m)]
        if min(route_energy_profile(route, bits, inst)) >= 0:
            feasible.append(mask)
    minimal = set()
    for mask in sorted(feasible, key=lambda s: (bin(s).count("1"), s)):
        if not any((k & mask) == k for k in minimal):
            minimal.add(mask)
    return minimal


def assert_sweep_matches_brute_force(seed: int, m_hi: int) -> None:
    """enumerate_patterns equals brute_force_patterns on 40 generated routes
    of 2 to m_hi - 1 edges: masks, classification and final batteries."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        m = int(rng.integers(2, m_hi))
        inst = generate_instance(max(m - 1, 1), seed=int(rng.integers(100_000)))
        perm = [int(u) for u in rng.permutation(inst.n) + 1]
        route = make_route(0, perm, inst)
        inst.P = float(rng.uniform(0.3, 1.1) * inst.rho_t * inst.route_distance(route.nodes))
        a = enumerate_patterns(route, inst)
        b = brute_force_patterns(route, inst)
        assert a.masks() == b.masks()
        assert a.classification == b.classification
        assert [x[1] for x in a.patterns] == [x[1] for x in b.patterns]


class TestChargePattern:
    def test_bitstring_runs_edge_one_first(self):
        p = ChargePattern.from_bitstring("10010")
        assert p.mask == 0b01001
        assert p.bitstring() == "10010"
        assert p.edges() == (0, 3)
        assert p.cardinality == 2


class TestPreprocess:
    def test_single_edge_within_capacity(self):
        inst, route = edge_instance([8.0], P=10.0)
        assert preprocess_route(route, inst) is RouteClass.TRIVIAL_NO_CHARGE

    def test_single_edge_over_capacity_is_hopeless(self):
        # one-edge routes never charge, whatever gamma could deliver
        inst, route = edge_instance([12.0], P=10.0, gamma=1.5)
        assert preprocess_route(route, inst) is RouteClass.INFEASIBLE

    def test_total_within_capacity_skips_search(self):
        inst, route = edge_instance([4, 4, 4], P=12.0)
        assert preprocess_route(route, inst) is RouteClass.TRIVIAL_NO_CHARGE

    def test_needs_search(self):
        inst, route = edge_instance([4, 4, 4], P=10.0)
        assert preprocess_route(route, inst) is RouteClass.NEEDS_BDP

    def test_hopeless_edge_despite_charging(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst, route = edge_instance([30, 5, 30], P=10.0, gamma=0.5)
        assert preprocess_route(route, inst) is RouteClass.INFEASIBLE


class TestSuffixRequirements:
    @staticmethod
    def requirements(route, inst):
        return bdp._suffix_sums(bdp._edge_consumption(route, inst)[0])

    def test_three_edges(self):
        inst, route = edge_instance([4, 4, 4], P=10.0)
        assert self.requirements(route, inst) == [8.0, 4.0, 0.0]

    def test_single_edge(self):
        inst, route = edge_instance([7.0], P=10.0)
        assert self.requirements(route, inst) == [0.0]

    def test_mixed_lengths(self):
        inst, route = edge_instance([1, 2, 3, 4], P=100.0)
        assert self.requirements(route, inst) == [9.0, 7.0, 4.0, 0.0]


class TestPruneSupersets:
    def test_drops_strict_superset(self):
        pats = [ChargePattern.from_bitstring("10101"),
                ChargePattern.from_bitstring("00101")]
        kept = prune_supersets(pats)
        assert [p.bitstring() for p in kept] == ["00101"]

    def test_empty_input(self):
        assert prune_supersets([]) == []

    def test_antichain_is_fixed_point(self):
        pats = [ChargePattern.from_bitstring(s) for s in ("101", "011", "110")]
        kept = prune_supersets(pats)
        assert {p.bitstring() for p in kept} == {"101", "011", "110"}

    def test_duplicates_collapse(self):
        pats = [ChargePattern(3, 4), ChargePattern(3, 4)]
        assert prune_supersets(pats) == [ChargePattern(3, 4)]

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            prune_supersets([ChargePattern(1, 3), ChargePattern(1, 4)])

    @settings(max_examples=100, deadline=None)
    @given(masks=st.lists(st.integers(0, 63), min_size=0, max_size=20))
    def test_result_is_minimal_antichain(self, masks):
        pats = [ChargePattern(m, 6) for m in masks]
        kept = prune_supersets(pats)
        kept_masks = [p.mask for p in kept]
        assert kept_masks == sorted(kept_masks)
        for a in kept_masks:
            for b in kept_masks:
                if a != b:
                    assert (a & b) != a          # no subset pairs survive
        for m in masks:
            assert any((k & m) == k for k in kept_masks)


class TestEnumerate:
    def test_three_singletons(self):
        inst, route = edge_instance([4, 4, 4], P=10.0, gamma=2.0)
        res = enumerate_patterns(route, inst)
        assert res.classification is RouteClass.ENUMERATED
        assert res.masks() == oracle_minimal_patterns(route, inst) == {0b001, 0b010, 0b100}
        finals = {p.bitstring(): b for p, b in res.patterns}
        assert finals == {"100": 2.0, "010": 6.0, "001": 6.0}

    def test_trivial_records_single_no_charge(self):
        inst, route = edge_instance([4, 4, 4], P=20.0)
        res = enumerate_patterns(route, inst)
        assert res.classification is RouteClass.TRIVIAL_NO_CHARGE
        assert res.masks() == {0}
        assert res.patterns[0][1] == 8.0

    def test_hopeless_route_has_empty_set(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst, route = edge_instance([30, 30, 30], P=10.0, gamma=0.5)
        res = enumerate_patterns(route, inst)
        assert res.classification is RouteClass.INFEASIBLE
        assert res.patterns == []

    def test_matches_oracle_on_random_routes(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            m = int(rng.integers(2, 9))
            inst = generate_instance(max(m - 1, 1), seed=int(rng.integers(100_000)))
            perm = [int(u) for u in rng.permutation(inst.n) + 1]
            route = make_route(0, perm, inst)
            total = inst.rho_t * inst.route_distance(route.nodes)
            inst.P = float(rng.uniform(0.3, 1.1) * total)
            inst.gamma = float(rng.choice([1.5, 2.0, 3.0]))
            res = enumerate_patterns(route, inst)
            assert res.masks() == oracle_minimal_patterns(route, inst)

    def test_rolling_equals_full_table(self):
        # a second seed and a shorter m range of TestBruteForce's comparison
        assert_sweep_matches_brute_force(seed=77, m_hi=9)

    def test_retained_batteries_match_profile_replay(self):
        inst, route = edge_instance([4, 4, 4], P=10.0, gamma=2.0)
        res = enumerate_patterns(route, inst)
        for pattern, final in res.patterns:
            trace = route_energy_profile(route, pattern, inst)
            assert min(trace) >= 0
            assert trace[-1] == final

    def test_superset_of_feasible_stays_feasible(self):
        # justification for the antichain pruning
        rng = np.random.default_rng(13)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            costs = [float(c) for c in rng.uniform(2, 10, size=m)]
            inst, route = edge_instance(costs, P=float(rng.uniform(5, 25)), gamma=2.0)
            res = enumerate_patterns(route, inst)
            for pattern, _ in res.patterns:
                extra = int(rng.integers(0, 1 << pattern.width))
                sup = ChargePattern(pattern.mask | extra, pattern.width)
                base_trace = route_energy_profile(route, pattern, inst)
                sup_trace = route_energy_profile(route, sup, inst)
                assert all(s >= b for s, b in zip(sup_trace, base_trace))

    def test_long_route_uses_greedy_fallback(self):
        rng = np.random.default_rng(3)
        costs = [float(c) for c in rng.uniform(3, 9, size=12)]
        inst, route = edge_instance(costs, P=0.6 * sum(costs), gamma=2.0)
        res = enumerate_patterns(route, inst, max_edges=8)
        assert res.fallback
        assert len(res.patterns) == 1
        pattern, final = res.patterns[0]
        assert min(route_energy_profile(route, pattern, inst)) >= 0
        direct = greedy_fallback_pattern(route, inst)
        assert direct.patterns[0][0] == pattern


class TestBruteForce:
    def test_agrees_with_sweep_and_classification(self):
        assert_sweep_matches_brute_force(seed=44, m_hi=10)


class TestMinChargeCount:
    @settings(max_examples=300, deadline=None)
    @given(costs=st.lists(st.integers(1, 30), min_size=1, max_size=12),
           gamma=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           frac=st.floats(0.05, 1.2))
    def test_equals_enumeration_and_brute_force(self, costs, gamma, frac):
        # P runs from below a single edge (infeasible) to above the whole
        # route (trivially charge-free); integer edge lengths keep every
        # battery update exact, so the brute-force replay agrees bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # gamma = rho_t warns
            inst, route = edge_instance(costs, P=frac * sum(costs), gamma=gamma)
        count = min_charge_count(route, inst)
        brute = brute_force_patterns(route, inst)
        assert count == brute.min_cardinality()
        assert count == enumerate_patterns(route, inst).min_cardinality()
        assert (count is None) == (not brute.feasible)

    @settings(max_examples=200, deadline=None)
    @given(costs=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=12),
           gamma=st.sampled_from([1.5, 2.0, 3.0]),
           frac=st.floats(0.05, 1.2), rho_t=st.floats(0.3, 1.4))
    def test_equals_enumeration_under_rounding(self, costs, gamma, frac, rho_t):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst, route = edge_instance(costs, P=frac * rho_t * sum(costs),
                                        gamma=gamma, rho_t=rho_t)
        expect = enumerate_patterns(route, inst).min_cardinality()
        assert min_charge_count(route, inst) == expect

    def test_long_route_counts_the_fallback_pattern(self):
        rng = np.random.default_rng(3)
        costs = [float(c) for c in rng.uniform(3, 9, size=12)]
        inst, route = edge_instance(costs, P=0.6 * sum(costs), gamma=2.0)
        greedy = greedy_fallback_pattern(route, inst).min_cardinality()
        assert greedy is not None and greedy > 0
        assert min_charge_count(route, inst, max_edges=8) == greedy
        assert min_charge_count(route, inst, max_edges=8) == \
            enumerate_patterns(route, inst, max_edges=8).min_cardinality()
