import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wmcevrp import bdp
from wmcevrp.bdp import (
    BdpResult,
    RouteClass,
    brute_force_patterns,
    enumerate_patterns,
    min_charge_count,
    preprocess_route,
    prune_supersets,
)
from wmcevrp.generator import generate_instance
from wmcevrp.model import EPS, Instance, Route, make_route, route_energy_profile

from conftest import bits, build_instance


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


def assert_min_count_witness(res, route, inst):
    """res holds one feasible pattern of the fewest charges brute force finds."""
    brute = brute_force_patterns(route, inst)
    assert res.classification == brute.classification
    assert res.min_cardinality() == brute.min_cardinality() == min_charge_count(route, inst)
    if brute.feasible:
        [pattern] = res.patterns
        assert type(pattern) is int
        assert min(route_energy_profile(route, pattern, inst)) >= 0


def assert_never_runs_dry(res, route, inst):
    """Every retained pattern's battery replay stays at or above zero."""
    for pattern in res.patterns:
        assert min(route_energy_profile(route, pattern, inst)) >= 0


def long_route_case():
    rng = np.random.default_rng(3)
    costs = [float(c) for c in rng.uniform(3, 9, size=12)]
    return edge_instance(costs, P=0.6 * sum(costs), gamma=2.0)


def oracle_minimal_patterns(route, inst):
    """All-mask replay through the public battery profile, then keep minimal."""
    m = len(route.edges())
    feasible = []
    for mask in range(1 << m):
        if min(route_energy_profile(route, mask, inst)) >= 0:
            feasible.append(mask)
    minimal = set()
    for mask in sorted(feasible, key=lambda s: (bin(s).count("1"), s)):
        if not any((k & mask) == k for k in minimal):
            minimal.add(mask)
    return minimal


def assert_sweep_matches_brute_force(seed: int, m_hi: int) -> None:
    """enumerate_patterns equals brute_force_patterns on 40 generated routes
    of 2 to m_hi - 1 edges: patterns in (cardinality, mask) order and
    classification; every retained pattern replays without running dry."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        m = int(rng.integers(2, m_hi))
        inst = generate_instance(max(m - 1, 1), seed=int(rng.integers(100_000)))
        perm = [int(u) for u in rng.permutation(inst.n) + 1]
        route = make_route(0, perm, inst)
        inst.P = float(rng.uniform(0.3, 1.1) * inst.rho_t * inst.route_distance(route.nodes))
        a = enumerate_patterns(route, inst)
        b = brute_force_patterns(route, inst)
        assert a.patterns == b.patterns
        assert all(type(p) is int for p in a.patterns + b.patterns)
        assert a.patterns == sorted(a.patterns, key=lambda p: (p.bit_count(), p))
        assert a.classification == b.classification
        assert_never_runs_dry(a, route, inst)


def assert_screened(costs, cls, **params):
    """`preprocess_route` gives the path of these edge lengths class ``cls``.
    A trivial or infeasible one gets the same class from the sweep (also
    with every route sent to the witness) and from brute force, with
    pattern 0 or none, and count 0 or None from the count tables."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # gamma <= rho_t warns
        inst, route = edge_instance(costs, **params)
    assert preprocess_route(route, inst) is cls
    if cls is RouteClass.NEEDS_BDP:
        return inst, route
    patterns = [0] if cls is RouteClass.TRIVIAL_NO_CHARGE else []
    for res in (enumerate_patterns(route, inst), enumerate_patterns(route, inst, max_edges=0),
                brute_force_patterns(route, inst)):
        assert res == BdpResult(cls, patterns)
    assert bdp.CountTables([float(c) for c in costs], inst).route_count() == (
        0 if patterns else None)
    return inst, route


class TestPreprocess:
    def test_single_edge_within_capacity(self):
        for c in (8.0, 10.0, 0.5):
            assert_screened([c], RouteClass.TRIVIAL_NO_CHARGE, P=10.0)

    def test_single_edge_over_capacity_is_hopeless(self):
        # one-edge routes never charge, whatever gamma could deliver
        for c, gamma in ((12.0, 1.5), (10.5, 3.0), (40.0, 0.5)):
            assert_screened([c], RouteClass.INFEASIBLE, P=10.0, gamma=gamma)

    def test_total_within_capacity_skips_search(self):
        for costs, P in (([4, 4, 4], 12.0), ([4, 4, 4], 20.0), ([1, 2, 3, 4], 10.0),
                         ([9, 1], 10.0)):
            assert_screened(costs, RouteClass.TRIVIAL_NO_CHARGE, P=P)
        # a route that fits is trivial even where charging gains less than it drains
        assert_screened([6, 3], RouteClass.TRIVIAL_NO_CHARGE, P=10.0, gamma=0.5)

    def test_needs_search(self):
        for costs, P, gamma in (([4, 4, 4], 10.0, 2.0), ([4, 4, 4], 4.0, 2.0),
                                ([1, 2, 3, 4], 9.5, 2.0), ([9, 2], 10.0, 2.0),
                                # a net drain of exactly P while charging
                                ([4, 20, 4], 10.0, 0.5)):
            assert_screened(costs, RouteClass.NEEDS_BDP, P=P, gamma=gamma)

    def test_hopeless_edge_despite_charging(self):
        for costs in ([30, 5, 30], [5, 30], [4, 21, 4], [30, 30, 30]):
            assert_screened(costs, RouteClass.INFEASIBLE, P=10.0, gamma=0.5)

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    @pytest.mark.parametrize("costs, rho_t", [
        ([7.0], 0.7), ([0.1, 0.2, 0.3], 1.0), ([0.1, 0.1, 0.3, 0.7, 1.1], 1.3),
        ([3.3, 0.2, 5.1, 0.7], 0.7)])
    def test_battery_at_the_screens_sum(self, costs, rho_t, nudge):
        # P is the screen's own sum(cons), or the float on either side of it:
        # at and above it the route is trivial, below it a single edge is
        # hopeless and a longer route goes to the search, where the sweep
        # and the count tables find the same fewest charges
        P = sum([rho_t * c for c in costs])
        if nudge:
            P = math.nextafter(P, math.copysign(math.inf, nudge))
        cls = (RouteClass.TRIVIAL_NO_CHARGE if nudge >= 0 else
               RouteClass.INFEASIBLE if len(costs) == 1 else RouteClass.NEEDS_BDP)
        inst, route = assert_screened(costs, cls, P=P, rho_t=rho_t, gamma=2.0)
        if cls is RouteClass.NEEDS_BDP:
            count = min_charge_count(route, inst)
            assert count is not None
            assert enumerate_patterns(route, inst).min_cardinality() == count


class TestSuffixRequirements:
    @staticmethod
    def requirements(route, inst):
        """What finishing the route uncharged needs after each edge: the
        sweep's thresholds, ``CountTables.needs[0]`` from edge 1 on."""
        cons = bdp._energy(bdp._edge_lengths(route, inst), inst)[0]
        return bdp._uncharged_needs(cons)[1:]

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
        assert prune_supersets([bits("10101"), bits("00101")]) == [bits("00101")]

    def test_empty_input(self):
        assert prune_supersets([]) == []

    def test_antichain_is_fixed_point(self):
        pats = [bits(s) for s in ("101", "011", "110")]
        assert set(prune_supersets(pats)) == set(pats)

    def test_duplicates_collapse(self):
        assert prune_supersets([3, 3]) == [3]

    @settings(max_examples=100, deadline=None)
    @given(masks=st.lists(st.integers(0, 63), min_size=0, max_size=20))
    def test_result_is_minimal_antichain(self, masks):
        kept_masks = prune_supersets(masks)
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
        assert set(res.patterns) == oracle_minimal_patterns(route, inst) == {0b001, 0b010, 0b100}
        assert res.patterns == [bits("100"), bits("010"), bits("001")]
        assert all(type(p) is int for p in res.patterns)
        finals = {p: route_energy_profile(route, p, inst)[-1] for p in res.patterns}
        assert finals == {bits("100"): 2.0, bits("010"): 6.0, bits("001"): 6.0}

    def test_trivial_records_single_no_charge(self):
        inst, route = edge_instance([4, 4, 4], P=20.0)
        res = enumerate_patterns(route, inst)
        assert res.classification is RouteClass.TRIVIAL_NO_CHARGE
        assert res.patterns == [0] and type(res.patterns[0]) is int
        assert route_energy_profile(route, res.patterns[0], inst)[-1] == 8.0

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
            assert set(res.patterns) == oracle_minimal_patterns(route, inst)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 10),
           frac=st.floats(0.3, 1.1), gamma=st.sampled_from([1.5, 2.0, 3.0]))
    def test_patterns_are_the_pruned_terminal_masks(self, seed, n, frac, gamma):
        """The int-mask filter keeps what `prune_supersets` keeps of the
        sweep's terminal masks, in (cardinality, mask) order."""
        inst = generate_instance(n, seed=seed)
        rng = np.random.default_rng(seed)
        route = make_route(0, [int(u) for u in rng.permutation(n) + 1], inst)
        inst.P = frac * inst.rho_t * inst.route_distance(route.nodes)
        inst.gamma = gamma
        if preprocess_route(route, inst) is not RouteClass.NEEDS_BDP:
            return
        cons, gain = bdp._energy(bdp._edge_lengths(route, inst), inst)
        terminal = bdp._sweep(cons, gain, bdp._uncharged_needs(cons), inst.P)
        pruned = prune_supersets(terminal)
        assert enumerate_patterns(route, inst).patterns == \
            sorted(pruned, key=lambda p: (p.bit_count(), p))

    def test_rolling_equals_full_table(self):
        # a second seed and a shorter m range of TestBruteForce's comparison
        assert_sweep_matches_brute_force(seed=77, m_hi=9)

    def test_retained_patterns_never_run_dry(self):
        inst, route = edge_instance([4, 4, 4], P=10.0, gamma=2.0)
        res = enumerate_patterns(route, inst)
        assert len(res.patterns) == 3
        assert_never_runs_dry(res, route, inst)

    def test_superset_of_feasible_stays_feasible(self):
        # justification for the antichain pruning
        rng = np.random.default_rng(13)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            costs = [float(c) for c in rng.uniform(2, 10, size=m)]
            inst, route = edge_instance(costs, P=float(rng.uniform(5, 25)), gamma=2.0)
            res = enumerate_patterns(route, inst)
            for pattern in res.patterns:
                extra = int(rng.integers(0, 1 << m))
                sup = pattern | extra
                base_trace = route_energy_profile(route, pattern, inst)
                sup_trace = route_energy_profile(route, sup, inst)
                assert all(s >= b for s, b in zip(sup_trace, base_trace))

    def test_long_route_gets_the_min_count_witness(self):
        inst, route = long_route_case()
        res = enumerate_patterns(route, inst, max_edges=8)
        assert res.fallback
        assert res.min_cardinality() > 0
        assert_min_count_witness(res, route, inst)

    @settings(max_examples=300, deadline=None)
    @given(costs=st.lists(st.integers(1, 30), min_size=1, max_size=12),
           gamma=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
           frac=st.floats(0.05, 1.2))
    def test_witness_has_the_fewest_charges(self, costs, gamma, frac):
        # max_edges=0 sends every route that needs a search to the witness;
        # integer edge lengths keep every battery update exact
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # gamma <= rho_t warns
            inst, route = edge_instance(costs, P=frac * sum(costs), gamma=gamma)
        res = enumerate_patterns(route, inst, max_edges=0)
        assert res.fallback == (preprocess_route(route, inst) is RouteClass.NEEDS_BDP)
        assert_min_count_witness(res, route, inst)

    def test_witness_charges_where_greedy_runs_dry(self):
        # gamma < rho_t: charging only slows the drain. Charging the last arc
        # alone, when the battery first runs short, leaves 2 - 12 + 6 < 0;
        # the one feasible pattern charges all three arcs.
        dist = [[0, 4, 12, 0], [4, 0, 4, 4], [12, 4, 0, 12], [0, 4, 12, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = Instance(n=2, dist=dist, demand=[1, 1], P=10.0, B=1e6, Q=100.0,
                            rho_t=1.0, rho_e=100.0, rho_c=200.0, gamma=0.5, phi=1.0,
                            max_mtev=2, max_mct=2)
        route = Route(0, [0, 1, 2, 3])
        res = enumerate_patterns(route, inst, max_edges=2)
        assert res.fallback
        assert res.patterns == [bits("111")]
        trace = route_energy_profile(route, res.patterns[0], inst)
        assert min(trace) >= 0 and trace[-1] == 0.0
        assert min_charge_count(route, inst) == 3


class TestEdgeLengths:
    """Passing a route's edge lengths as plain floats changes nothing."""

    @staticmethod
    def assert_same_with_lengths(inst, route):
        d = inst.dist.tolist()
        lengths = [d[i][j] for i, j in route.edges()]
        for max_edges in (0, 3, 20):
            assert (enumerate_patterns(route, inst, max_edges=max_edges, lengths=lengths)
                    == enumerate_patterns(route, inst, max_edges=max_edges))
        assert min_charge_count(route, inst, lengths) == min_charge_count(route, inst)

    @settings(max_examples=150, deadline=None)
    @given(costs=st.lists(st.integers(1, 30), min_size=1, max_size=10),
           gamma=st.sampled_from([0.5, 1.0, 2.0, 3.0]), frac=st.floats(0.05, 1.2))
    def test_integer_lengths(self, costs, gamma, frac):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # gamma <= rho_t warns
            inst, route = edge_instance(costs, P=frac * sum(costs), gamma=gamma)
        self.assert_same_with_lengths(inst, route)

    @settings(max_examples=150, deadline=None)
    @given(costs=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=10),
           gamma=st.sampled_from([1.5, 2.0, 3.0]),
           frac=st.floats(0.05, 1.2), rho_t=st.floats(0.3, 1.4))
    def test_float_lengths(self, costs, gamma, frac, rho_t):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst, route = edge_instance(costs, P=frac * rho_t * sum(costs),
                                        gamma=gamma, rho_t=rho_t)
        self.assert_same_with_lengths(inst, route)


class TestBruteForce:
    def test_agrees_with_sweep_and_classification(self):
        assert_sweep_matches_brute_force(seed=44, m_hi=10)

    @pytest.mark.filterwarnings("ignore:gamma <= rho_t")
    def test_replay_may_drop_a_pattern_at_a_tie(self):
        # P is rho_t times the lengths summed left to right, so the route
        # uses the battery up exactly; the sweep decides within bdp.margin
        # and keeps the empty pattern, which the checker accepts, while the
        # brute-force replay of mask 0 ends at -2.2e-16 and drops it
        lengths = [0.1, 0.1, 0.3, 0.7, 1.1]
        inst, route = edge_instance(lengths, P=1.3 * summed(lengths), rho_t=1.3, gamma=0.5)
        res = enumerate_patterns(route, inst)
        assert res.patterns == [0]
        assert min_charge_count(route, inst) == 0
        for mask in res.patterns:
            assert min(route_energy_profile(route, mask, inst)) >= -EPS


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

    def test_long_route_count_is_exact(self):
        inst, route = long_route_case()
        count = min_charge_count(route, inst)
        assert count is not None and count > 0
        assert count == brute_force_patterns(route, inst).min_cardinality()
        assert count == enumerate_patterns(route, inst, max_edges=8).min_cardinality()

    def test_count_reads_back_no_witness(self, monkeypatch):
        # only the long-route fallback of enumerate_patterns needs the mask
        inst, route = long_route_case()
        witnesses = []
        read_back = bdp._witness
        monkeypatch.setattr(bdp, "_witness",
                            lambda *args: witnesses.append(args) or read_back(*args))
        assert min_charge_count(route, inst) > 0
        assert witnesses == []
        assert enumerate_patterns(route, inst, max_edges=8).fallback
        assert len(witnesses) == 1


# ---------------------------------------------------------------------------
# the earlier table sweep and inline count DP, kept as references
# ---------------------------------------------------------------------------

def table_sweep(cons, gain, req, P):
    """Terminal masks from one 2^m level table updated in place: at each
    edge the charging child first, then the plain child overwrites the
    parent slot. Marks: -1 dead, 0 active, 1 terminal."""
    size = 1 << len(cons)
    g = [0.0] * size
    v = [-1] * size
    g[0] = P
    v[0] = 0
    terminal = set()
    for e, (ce, ge, r_e) in enumerate(zip(cons, gain, req)):
        for s in range(1 << e):
            if v[s] != 0:
                continue
            base = g[s]
            child = base - ce + ge
            if child > P:
                child = P
            for slot, level in ((s | 1 << e, child), (s, base - ce)):
                g[slot] = level
                v[slot] = -1 if level < 0.0 else 1 if level >= r_e else 0
                if v[slot] == 1:
                    terminal.add(slot)
    return terminal


def inline_count_sweep(cons, gain, req, P, history):
    """The count DP with its own transition: every active count's plain and
    charged child in ascending count order, the first terminal one kept;
    dead levels are -1.0."""
    levels = [P]
    best = end = None
    for e, (ce, ge, r_e) in enumerate(zip(cons, gain, req)):
        history.append(levels)
        width = len(levels) + 1 if best is None else best
        nxt = [-1.0] * width
        for k, base in enumerate(levels):
            if base < 0.0:
                continue
            child = base - ce + ge
            if child > P:
                child = P
            for count, level, bit in ((k, base - ce, 0), (k + 1, child, 1)):
                if level >= r_e:
                    if best is None or count < best:
                        best, end = count, (e, k, bit)
                elif level >= 0.0 and count < width and level > nxt[count]:
                    nxt[count] = level
        if best is not None:
            del nxt[best:]
        if not any(level >= 0.0 for level in nxt):
            break
        levels = nxt
    return None if best is None else (best, end)


def edge_major_witness(history, cons, end) -> int:
    """The witness read back from the levels the inline DP appends to
    `history` before each edge, ``history[f][k]``, where a count missing
    from a row is a dead level."""
    e, k, bit = end
    mask = bit << e
    level = history[e][k]
    for f in range(e - 1, -1, -1):
        prev = history[f]
        if k >= len(prev) or prev[k] - cons[f] != level:
            k -= 1
            mask |= 1 << f
        level = prev[k]
    return mask


def reference_count(lengths, rho_t, gamma, P):
    """(count, end, witness) of the inline DP; None when no mask is terminal."""
    cons = [rho_t * c for c in lengths]
    history = []
    found = inline_count_sweep(cons, [gamma * c for c in lengths],
                               bdp._uncharged_needs(cons)[1:], P, history)
    return None if found is None else (*found, edge_major_witness(history, cons, found[1]))


def scanned_count(tables):
    """(count, end, witness) of the scan over the count tables' rows."""
    found = tables._first_terminal()
    if found is None:
        return None
    return (*found, bdp._witness(tables.levels, tables.cons, found[1]))


def assert_same_as_references(lengths, rho_t, gamma, P):
    """`_sweep` gives the table sweep's terminal masks, and the scan over
    `CountTables` gives the inline DP's (count, end) and witness."""
    cons = [rho_t * c for c in lengths]
    gain = [gamma * c for c in lengths]
    need = bdp._uncharged_needs(cons)
    assert bdp._sweep(cons, gain, need, P) == table_sweep(cons, gain, need[1:], P)
    tables = bdp.CountTables(lengths, battery_instance(P, rho_t, gamma))
    assert scanned_count(tables) == reference_count(lengths, rho_t, gamma, P)


# edge-length strategies of the reference comparisons
EDGE_LENGTHS = {"integer": st.integers(0, 9).map(float),
                "tenths": st.integers(0, 30).map(lambda t: t / 10),
                "float": st.floats(0.01, 10.0)}


class TestSameAsTableSweep:
    """The depth-first sweep and the scan over the `_step` count tables decide
    every float comparison as the table sweep and the inline DP did, ties
    included."""

    @settings(max_examples=600, deadline=None)
    @given(data=st.data(), m=st.integers(1, 12),
           kind=st.sampled_from(("integer", "tenths", "float")),
           rho_t=st.sampled_from([0.7, 1.0, 1.3]),
           gamma=st.sampled_from([0.5, 1.0, 2.0, 3.0, None]),
           battery=st.sampled_from(("total", "integer", "edge", "suffix")))
    def test_same_terminals_count_and_witness(self, data, m, kind, rho_t, gamma, battery):
        # gamma None: equal to rho_t, so that a charged edge drains nothing;
        # battery "suffix": one ulp below what finishing the route after some
        # edge needs, where rounding alone may turn a plain child terminal
        draw = EDGE_LENGTHS[kind]
        lengths = data.draw(st.lists(draw, min_size=m, max_size=m))
        cons = [rho_t * c for c in lengths]
        P = {"total": lambda: sum(cons) / data.draw(st.sampled_from([1.5, 2.0, 3.0, 4.0])),
             "integer": lambda: float(data.draw(st.integers(1, 8))),
             "edge": lambda: max(cons) * data.draw(st.sampled_from([1.0, 1.5])),
             "suffix": lambda: math.nextafter(
                 data.draw(st.sampled_from(bdp._uncharged_needs(cons)[1:])),
                 -math.inf)}[battery]()
        assume(P > 0.0)
        assert_same_as_references(lengths, rho_t, rho_t if gamma is None else gamma, P)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), m=st.integers(1, 14),
           kind=st.sampled_from(("integer", "tenths", "float")),
           rho_t=st.sampled_from([0.7, 1.0, 1.3]),
           gamma=st.sampled_from([0.5, 1.0, 2.0, 3.0, None]), nudge=st.integers(-1, 1))
    def test_scan_does_not_depend_on_growth(self, data, m, kind, rho_t, gamma, nudge):
        # the battery is what finishing the route after some edge needs, or
        # one ulp beside it; insertion pricing grows the rows as far as the
        # inserted routes' counts, which may lie past the route's own
        draw = EDGE_LENGTHS[kind]
        lengths = data.draw(st.lists(draw, min_size=m, max_size=m))
        gamma = rho_t if gamma is None else gamma
        P = data.draw(st.sampled_from(bdp._uncharged_needs([rho_t * c for c in lengths])[1:]))
        for _ in range(abs(nudge)):
            P = math.nextafter(P, math.copysign(math.inf, nudge))
        assume(P > 0.0)
        want = reference_count(lengths, rho_t, gamma, P)
        inst = battery_instance(P, rho_t, gamma)
        assert scanned_count(bdp.CountTables(lengths, inst)) == want
        tables = bdp.CountTables(lengths, inst)
        c1, c2 = data.draw(draw), data.draw(draw)
        for pos in range(1, m + 1):
            tables.insertion_count(pos, c1, c2)
        assert scanned_count(tables) == want

    @pytest.mark.parametrize("lengths, rho_t, gamma, P", [
        ([1.4, 2.4, 1.9, 2.8, 1.8], 1.0, 1.0, 6.499999999999999),
        ([7.0, 3.0, 8.0, 9.0, 6.0], 0.7, 2.0, 18.2),
        ([9.0, 7.0, 3.0, 4.0, 6.0, 9.0, 0.0], 0.7, 3.0, 13.299999999999999),
    ])
    def test_charged_child_wins_a_tie(self, lengths, rho_t, gamma, P):
        # the fewest charges first turn terminal on an edge where the charged
        # child of the count below and, by rounding, the plain child both do;
        # the end bit is the charged child's
        found = bdp.CountTables(lengths, battery_instance(P, rho_t, gamma))._first_terminal()
        assert found[1][2] == 1
        assert_same_as_references(lengths, rho_t, gamma, P)


# ---------------------------------------------------------------------------
# charge counts of inserted routes from the route's tables
# ---------------------------------------------------------------------------

def battery_instance(P, rho_t, gamma):
    """An instance for the battery parameters alone: counts given edge
    lengths read nothing else."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # gamma <= rho_t warns
        return build_instance([[0, 1], [1, 0]], [1], P=P, rho_t=rho_t, gamma=gamma)


def count_of(lengths, inst):
    """`min_charge_count` of a route with these edge lengths."""
    return min_charge_count(Route(0, list(range(len(lengths) + 1))), inst, lengths)


def boundary_battery(trial, rho_t, gamma, first, last, charged, nudge):
    """A battery where the trial route's count changes: what edges first..last
    drain from a full battery, or after a charged edge reached the cap, in
    the DP's order, with edge `charged` charged, moved `nudge` ulps."""
    P = 0.0
    for e in range(first, last + 1):
        P = P + rho_t * trial[e] - gamma * trial[e] if e == charged else P + rho_t * trial[e]
    for _ in range(abs(nudge)):
        P = math.nextafter(P, math.copysign(math.inf, nudge))
    return P


def table_questions(lengths, c1, c2, inst):
    """(what the tables answer, edge lengths of the route it is about) for
    the route itself, a customer inserted at every position between new
    edges c1 and c2, and the fresh route: an insertion into [0, n+1]."""
    tables = bdp.CountTables(lengths, inst)
    yield tables.route_count, lengths
    for pos in range(1, len(lengths) + 1):
        yield (functools.partial(tables.insertion_count, pos, c1, c2),
               lengths[:pos - 1] + [c1, c2] + lengths[pos:])
    yield tables.route_count, lengths       # again, on grown tables
    yield functools.partial(bdp.CountTables([0.0], inst).insertion_count, 1, c1, c2), [c1, c2]


# edge lengths: integers, decimals that binary floats round (and zero), and any
LENGTHS = ("integer", "decimal", "float")


def boundary_case(draw_int, kind, m, rho_t, gamma, nudge):
    """A route of m edges, two new edges and a battery at a boundary of the
    route or of one that inserting them makes; None when that battery is
    not positive. `kind` is one of LENGTHS."""
    def draw_length():
        if kind == "integer":
            return float(draw_int(0, 9))
        if kind == "decimal":
            return (0.0, 0.1, 0.2, 0.3, 0.7, 1.1)[draw_int(0, 5)]
        return draw_int(1, 10**6) / 10**5
    lengths = [draw_length() for _ in range(m)]
    c1, c2 = draw_length(), draw_length()
    pos = draw_int(0, m)
    trial = lengths[:pos - 1] + [c1, c2] + lengths[pos:] if pos else lengths
    first = draw_int(0, len(trial) - 1)
    last = draw_int(first, len(trial) - 1)
    charged = draw_int(first - 1, last)   # first - 1: no edge charged
    P = boundary_battery(trial, rho_t, gamma, first, last, charged, nudge)
    return (lengths, c1, c2, battery_instance(P, rho_t, gamma)) if P > 0 else None


class TestCountTables:
    """`CountTables` gives `min_charge_count` of the rebuilt route, also where
    rounding decides the DP: at and one ulp beside batteries where a count
    changes."""

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), m=st.integers(1, 14), kind=st.sampled_from(LENGTHS),
           rho_t=st.sampled_from([0.7, 1.0, 1.3]),
           gamma=st.sampled_from([0.5, 1.0, 2.0, 3.0, None]), nudge=st.integers(-1, 1))
    def test_join_equals_count_of_rebuilt_route(self, data, m, kind, rho_t, gamma, nudge):
        # gamma None: equal to rho_t, so that a charged edge drains nothing
        case = boundary_case(lambda lo, hi: data.draw(st.integers(lo, hi)), kind, m,
                             rho_t, rho_t if gamma is None else gamma, nudge)
        assume(case is not None)
        for ask, route_lengths in table_questions(*case):
            assert ask() == count_of(route_lengths, case[3])

    @pytest.mark.parametrize("lengths, pos, c1, c2, P, rho_t, gamma", [
        # a need after edge 0 within the margin of P, where the DP's cap decides
        ([1.1, 0.2, 0.0, 0.0, 0.7, 0.0, 0.2, 0.0, 0.1, 1.1, 0.2, 0.1, 0.7, 0.7],
         1, 0.2, 0.3, 0.20000000000000004, 1.0, 1.0),
        # the uncharged level before edge 4 is killed by rounding alone, after
        # the DP on the trial route has already stopped charging
        ([5.0, 3.0, 4.0, 6.0, 5.0], 5, 0.0, 0.0, 23.4, 1.3, 0.5),
        # the same on the first new edge
        ([0.0, 4.0, 2.0], 3, 2.0, 0.0, 4.199999999999999, 0.7, 0.5),
    ])
    def test_ties_rounding_decides(self, lengths, pos, c1, c2, P, rho_t, gamma):
        inst = battery_instance(P, rho_t, gamma)
        trial = lengths[:pos - 1] + [c1, c2] + lengths[pos:]
        assert bdp.CountTables(lengths, inst).insertion_count(pos, c1, c2) == count_of(trial, inst)

    def test_join_and_fallback_both_answer(self, monkeypatch):
        # an insertion is answered by the join or, near a tie, by the DP's
        # scan on the trial route; a route's own count is always the scan
        dp_calls = []
        dp = bdp.CountTables._first_terminal
        monkeypatch.setattr(bdp.CountTables, "_first_terminal",
                            lambda tables: dp_calls.append(1) or dp(tables))
        rng = np.random.default_rng(5)
        seen = set()
        for i in range(600):
            rho_t = (0.7, 1.0, 1.3)[i % 3]
            case = boundary_case(lambda lo, hi: int(rng.integers(lo, hi + 1)), LENGTHS[i % 3],
                                 1 + i % 14, rho_t, (0.5, 1.0, 2.0, 3.0, rho_t)[i // 3 % 5],
                                 i // 15 % 3 - 1)
            if case is None:
                continue
            for ask, route_lengths in table_questions(*case):
                want = count_of(route_lengths, case[3])
                calls = len(dp_calls)
                assert ask() == want
                if isinstance(ask, functools.partial):
                    seen.add(("dp" if len(dp_calls) > calls else "join", want is None))
        assert seen == {("join", False), ("join", True), ("dp", False), ("dp", True)}


# ---------------------------------------------------------------------------
# the battery fit that lets charge insertion skip the count tables
# ---------------------------------------------------------------------------

def summed(lengths):
    """A route's length summed edge by edge from the depot, as the LNS sums it."""
    total = 0.0
    for c in lengths:
        total += c
    return total


class TestFits:
    """Where `fits` holds, the DP, the tables and the enumeration all give
    count 0, also a few ulps and about one `margin` beside the battery a
    route or an inserted route uses up."""

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), m=st.integers(1, 12), kind=st.sampled_from(LENGTHS),
           rho_t=st.sampled_from([0.7, 1.0, 1.3]), gamma=st.sampled_from([0.5, 2.0]),
           target=st.sampled_from(["route", "trial"]),
           offset=st.sampled_from(["ulps", "margin"]), step=st.integers(-4, 4))
    def test_fit_means_count_zero(self, data, m, kind, rho_t, gamma, target, offset, step):
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))    # noqa: E731
        case = boundary_case(draw, kind, m, rho_t, gamma, 0)
        assume(case is not None)
        lengths, c1, c2, _ = case
        pos = draw(1, m)
        trial = lengths[:pos - 1] + [c1, c2] + lengths[pos:]
        P = rho_t * summed(trial if target == "trial" else lengths)
        if offset == "ulps":
            for _ in range(abs(step)):
                P = math.nextafter(P, math.copysign(math.inf, step))
        else:
            P += step / 2 * bdp.ROUNDING * (P + (rho_t + gamma) * summed(trial))
        assume(P > 0.0)
        inst = battery_instance(P, rho_t, gamma)
        length, dropped = summed(lengths), lengths[pos - 1]
        tables = bdp.CountTables(lengths, inst)
        if bdp.fits(inst, length):
            assert count_of(lengths, inst) == 0
            assert tables.route_count() == 0
        if bdp.fits(inst, length - dropped + c1 + c2, dropped):
            assert count_of(trial, inst) == 0
            assert tables.insertion_count(pos, c1, c2) == 0
        for path in (lengths, trial):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")          # gamma <= rho_t warns
                path_inst, route = edge_instance(path, P=P, rho_t=rho_t, gamma=gamma)
            res = enumerate_patterns(route, path_inst)
            # the sweep classifies by the screen
            assert (res.classification is RouteClass.TRIVIAL_NO_CHARGE) == (
                preprocess_route(route, path_inst) is RouteClass.TRIVIAL_NO_CHARGE)
            if bdp.fits(path_inst, summed(path)):
                # within the band a replay may run dry by rounding alone
                assert res == brute_force_patterns(route, path_inst) == BdpResult(
                    RouteClass.TRIVIAL_NO_CHARGE, [0])

    def test_band_around_the_battery(self):
        inst = battery_instance(10.0, 1.0, 2.0)
        tol = bdp.margin(inst, 10.0)
        assert bdp.fits(inst, 10.0 - 2 * tol)
        assert not bdp.fits(inst, 10.0 - tol / 2)
        assert not bdp.fits(inst, 10.0)
        # an edge of 1000 dropped from the sum widens the band 200-fold
        assert not bdp.fits(inst, 10.0 - 2 * tol, 1000.0)
        assert bdp.fits(inst, 10.0 - 400 * tol, 1000.0)
