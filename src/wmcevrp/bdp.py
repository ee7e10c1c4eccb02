"""Charging-pattern enumeration for a fixed route via bitmask dynamic programming.

A pattern is a plain int, a bitmask over the route's m edges: bit e set means
the vehicle is charged in motion across edge e+1. The route's edge count is
its width; no pattern carries one. The enumerator returns the minimal
antichain of feasible patterns (no retained pattern is a superset of another)
in the order coordination branches over them: by cardinality, then mask
value. A caller that needs a pattern's battery levels replays it with
`model.route_energy_profile`, which takes the same mask. The sweep walks the
live mask prefixes depth first, in O(m) memory.

`CountTables` is the polynomial DP over charge counts, in one table: per
count, the highest battery level before each edge (forward), and what
finishing the route needs after it (backward). A route's fewest charges is
the first count whose level meets the uncharged need after some edge;
`min_charge_count` reads it from the forward rows, and so does the long-route
fallback of `enumerate_patterns`, which reads its witness back from the same
rows. Inserting a customer is priced by joining the forward levels with the
backward needs; within `margin` of a tie, where rounding could set the join
and the DP apart, the DP on the trial route decides. Both tables move over an
edge by the one transition `_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from operator import add, sub

import numpy as np

from .config import SolverConfig
from .model import Instance, Route


class RouteClass(Enum):
    TRIVIAL_NO_CHARGE = "trivially_feasible_no_charge"
    INFEASIBLE = "infeasible"
    NEEDS_BDP = "needs_bdp"
    ENUMERATED = "enumerated"


@dataclass
class BdpResult:
    """Outcome of pattern enumeration for one route.

    ``patterns`` holds the retained masks sorted by cardinality, then
    mask value, so the first one has the fewest charged arcs. ``fallback``
    marks a route longer than ``max_edges``: its one pattern is the
    charge-count DP's minimum-count witness, not the full antichain of the
    2^m sweep.
    """

    classification: RouteClass
    patterns: list[int] = field(default_factory=list)
    fallback: bool = False

    def charged(self) -> int:
        """The edges that some pattern charges, as a mask: 0 exactly when
        the route never charges (or has no pattern at all)."""
        union = 0
        for mask in self.patterns:
            union |= mask
        return union

    def min_cardinality(self) -> int | None:
        return self.patterns[0].bit_count() if self.patterns else None

    @property
    def feasible(self) -> bool:
        return self.classification is not RouteClass.INFEASIBLE


def _edge_consumption(route: Route, inst: Instance):
    """Per-edge consumption rho_t*c and charging gain gamma*c."""
    lengths = [float(inst.dist[i, j]) for i, j in route.edges()]
    cons = [inst.rho_t * c for c in lengths]
    gain = [inst.gamma * c for c in lengths]
    return cons, gain


def _suffix_sums(cons) -> list[float]:
    """Energy needed to finish the route after each edge with no further charging."""
    m = len(cons)
    req = [0.0] * m
    acc = 0.0
    for e in range(m - 1, 0, -1):
        acc += cons[e]
        req[e - 1] = acc
    return req


def preprocess_route(route: Route, inst: Instance) -> RouteClass:
    """Constant/linear-time screening before any pattern search.

    Single-edge routes are feasible only without charging. A route whose
    total consumption fits in the battery needs no charging at all. An edge
    whose net drain exceeds a full battery even while charging kills the
    route outright.
    """
    return _screen(*_edge_consumption(route, inst), inst.P)


def _screen(cons, gain, P: float) -> RouteClass:
    if sum(cons) <= P:      # the sum of one edge is its consumption
        return RouteClass.TRIVIAL_NO_CHARGE
    return RouteClass.INFEASIBLE if _hopeless(cons, gain, P) else RouteClass.NEEDS_BDP


def _hopeless(cons, gain, P: float) -> bool:
    """Whether a route that exceeds the battery is one edge, or has an edge
    that drains more than P even while charging."""
    return len(cons) == 1 or any(ce - ge > P for ce, ge in zip(cons, gain))


def _minimal_masks(masks) -> list[int]:
    """The masks of ``masks`` that contain no other one, duplicates
    collapsed, sorted by (cardinality, mask)."""
    kept: list[int] = []
    for mask in sorted(masks, key=lambda s: (s.bit_count(), s)):
        for k in kept:
            if k & mask == k:
                break
        else:
            kept.append(mask)
    return kept


def prune_supersets(masks) -> list[int]:
    """Minimal antichain: drop any mask that is a strict superset of another.

    Duplicates collapse to one copy. Output is sorted by increasing mask value.
    """
    return sorted(_minimal_masks(set(masks)))


def _result(patterns, cls: RouteClass = RouteClass.ENUMERATED,
            fallback: bool = False) -> BdpResult:
    """``patterns``, already in (cardinality, mask) order; INFEASIBLE when
    there are none."""
    if not patterns:
        return BdpResult(RouteClass.INFEASIBLE, [], fallback)
    return BdpResult(cls, patterns, fallback)


def _witness(levels, cons, end) -> int:
    """The mask of the path that ends at ``end`` = (edge, count, bit), read back
    from the levels per count before each edge, ``levels[k][f]``: a level came
    over edge f uncharged exactly when the level at the same count before f,
    minus cons[f] (the DP's own float operation), equals it; otherwise f was
    charged."""
    e, k, bit = end
    mask = bit << e
    level = levels[k][e]
    for f in range(e - 1, -1, -1):
        if levels[k][f] - cons[f] != level:
            k -= 1
            mask |= 1 << f
        level = levels[k][f]
    return mask


def _sweep(cons, gain, req, P: float) -> set[int]:
    """Every terminal mask: a prefix of charging decisions whose battery,
    after the edge it ends at, covers the rest of the route uncharged.

    Walks the live prefixes depth first; each one has a single parent, so
    nothing is stored per mask and memory is O(m). Over edge e a prefix at
    ``base`` has a plain child at base - cons[e] and a charging child at
    base - cons[e] + gain[e], capped at P. A child below 0 is dead; one at
    or above req[e] is terminal and not extended. `enumerate_patterns`
    calls it for m >= 2 only.
    """
    terminal: set[int] = set()
    stack = [(0, 0, P)]
    while stack:
        e, mask, base = stack.pop()
        r_e = req[e]
        plain = base - cons[e]
        child = plain + gain[e]
        if child > P:
            child = P
        if child >= r_e:
            terminal.add(mask | 1 << e)
        elif child >= 0.0:
            stack.append((e + 1, mask | 1 << e, child))
        if plain >= r_e:
            terminal.add(mask)
        elif plain >= 0.0:
            stack.append((e + 1, mask, plain))
    return terminal


def enumerate_patterns(route: Route, inst: Instance,
                       max_edges: int = SolverConfig.bdp_max_edges,
                       lengths: list[float] | None = None) -> BdpResult:
    """Minimal feasible charging patterns for one route.

    Trivial and hopeless routes are classified without any search, as
    `_screen` does, the trivial ones before any gain is computed. Routes longer
    than ``max_edges`` get the charge-count DP's minimum-count witness as
    their single pattern instead of the exponential sweep (flagged via
    ``fallback``). ``lengths``, when given, must be the route's edge lengths
    as read from ``inst.dist``; they spare the numpy look-ups.
    """
    if lengths is None:
        lengths = [float(inst.dist[i, j]) for i, j in route.edges()]
    cons = [inst.rho_t * c for c in lengths]
    if sum(cons) <= inst.P:
        return _result([0], RouteClass.TRIVIAL_NO_CHARGE)
    gain = [inst.gamma * c for c in lengths]
    if _hopeless(cons, gain, inst.P):
        return BdpResult(RouteClass.INFEASIBLE, [])
    if len(cons) > max_edges:
        tables = CountTables(lengths, inst)
        found = tables._first_terminal()
        witness = [_witness(tables.levels, tables.cons, found[1])] if found else []
        return _result(witness, fallback=True)
    # charging never lowers a level, so feasibility is upward-closed and the
    # minimal terminal masks are the minimal feasible patterns
    return _result(_minimal_masks(_sweep(cons, gain, _suffix_sums(cons), inst.P)))


def min_charge_count(route: Route, inst: Instance,
                     lengths: list[float] | None = None) -> int | None:
    """Fewest charged edges over the route's feasible patterns; None if infeasible.

    Exact at any route length: equals ``enumerate_patterns(route, inst,
    max_edges).min_cardinality()`` for every ``max_edges``, but reads it from
    the polynomial count DP of `CountTables` instead of the 2^m sweep.
    Callers that need the patterns themselves still enumerate. ``lengths`` is
    as in ``enumerate_patterns``.
    """
    if lengths is None:
        lengths = [float(inst.dist[i, j]) for i, j in route.edges()]
    return CountTables(lengths, inst).route_count()


# Each level, need or requirement of a route of m edges takes at most 4m
# roundings, each off by at most 2^-53 of a value bounded by
# S = P + (rho_t + gamma) * (route length). Below 2^20 edges it is thus within
# 2^-31 * S of its exact value, and a comparison whose exact sides differ by
# more than 2^-30 * S comes out alike in every float evaluation: in `_screen`,
# in the tables and in the construction's gate.
ROUNDING = 2.0 ** -30


def margin(inst: Instance, length: float) -> float:
    """Half-width of the band around a battery decision on a route of total
    length ``length`` inside which float rounding may decide it either way."""
    return ROUNDING * (inst.P + (inst.rho_t + inst.gamma) * length)


def fits(inst: Instance, length: float, dropped: float = 0.0) -> bool:
    """Whether a route of length ``length`` fits the battery by more than
    `margin`, so that `_screen` and `CountTables`, its scan and its join, all
    give count 0.
    ``dropped``: an edge subtracted from a longer sum to get ``length``."""
    return inst.P - inst.rho_t * length > margin(inst, length + dropped)


def _step(base: float, below: float, ce: float, ge: float, P: float, tol: float) -> float:
    """Highest level after one edge with k charges, from the highest levels
    before it with k (``base``) and k - 1 (``below``) charges, by the float
    operations of `_sweep`. A dead level is -inf, or its negative
    value when within ``tol`` of 0: one that rounding may have killed."""
    best = -math.inf
    if base >= 0.0:
        best = base - ce
    if below >= 0.0:
        child = below - ce + ge
        if child > P:
            child = P
        if child > best:
            best = child
    return best if best >= -tol else -math.inf


class CountTables:
    """The polynomial DP over charge counts of a route: its fewest charged
    edges, and those of the route with a customer inserted on any edge, by
    forward/backward route concatenation (Vidal, Crainic, Gendreau & Prins,
    EJOR 2014).

    ``levels[k][e]``: the highest level before edge e (e = m: after the last
    edge) over the patterns with exactly k charged edges before it, moved
    over each edge by `_step`, the dominance rule of resource-constrained
    shortest paths. Its updates are the float operations of `_sweep` and
    monotone under rounding, so the first count, in count order, whose level
    after some edge covers the rest of the route uncharged is the fewest
    set bits of a terminal mask of the sweep. O(m^2) instead of O(2^m).
    ``needs[j][e]``: the lowest level before edge e that finishes the route
    with at most j charged edges from e on (inf: none); charging edge e
    lowers the need after it by ``gain[e] - cons[e]``, down to 0, if that
    need is at most P. ``needs[0][e + 1]`` is what finishing the route
    uncharged after edge e needs. An inserted route's count t is feasible
    where some ``levels[k]``, carried over the new edges, reaches
    ``needs[t - k]``. Both tables grow one count at a time, as far as the
    smallest feasible count (0 for a route that fits the battery). The DP
    runs on the trial route when a pair is within `margin`, or the tables
    hold a level rounding may have killed or a need within the margin of P,
    where the cap decides what the DP compares next.
    """

    __slots__ = ("inst", "lengths", "cons", "gain", "length", "tol", "levels", "needs",
                 "tie_levels", "tie_needs")

    def __init__(self, lengths: list[float], inst: Instance):
        self.inst = inst
        self.lengths = lengths
        self.cons = cons = [inst.rho_t * c for c in lengths]
        self.gain = [inst.gamma * c for c in lengths]
        self.length = sum(lengths)
        self.tol = margin(inst, self.length)
        m = len(cons)
        self.tie_levels = m    # first edge before which a level may miss a pattern rounding killed
        self.tie_needs = -1    # last edge after which a need lies within the margin of P
        # count 0: the level falls by each edge's consumption, and so does the need
        levels = list(accumulate(cons, sub, initial=inst.P))
        if levels[-1] < 0.0:
            dead = next(e for e, level in enumerate(levels) if level < 0.0)
            if levels[dead] >= -self.tol:
                self.tie_levels = dead
                dead += 1
            levels[dead:] = [-math.inf] * (m + 1 - dead)
        needs = list(accumulate(reversed(cons), add, initial=0.0))
        needs.reverse()
        self.levels = [levels]
        self.needs = [needs]

    def _grow(self) -> None:
        """Add the next charge count to both tables."""
        cons, gain, P, tol = self.cons, self.gain, self.inst.P, self.tol
        m = len(cons)
        below = self.levels[-1]
        level = -math.inf
        levels = [level]
        for e in range(m):
            level = _step(level, below[e], cons[e], gain[e], P, tol)
            if level < 0.0 <= level + tol and e < self.tie_levels:
                self.tie_levels = e + 1
            levels.append(level)
        self.levels.append(levels)
        after = self.needs[-1]
        need = 0.0
        needs = [need] * (m + 1)
        for e in range(m - 1, -1, -1):
            nd = after[e + 1]
            need = cons[e] + need
            if nd <= P:
                charged = nd + cons[e] - gain[e]
                if charged < need:
                    need = charged if charged > 0.0 else 0.0
            if abs(nd - P) <= tol and e > self.tie_needs:
                self.tie_needs = e
            needs[e] = need
        self.needs.append(needs)

    def route_count(self) -> int | None:
        """``min_charge_count`` of the route itself: `_screen`, then the
        first terminal count."""
        cons, P = self.cons, self.inst.P
        if sum(cons) <= P:      # the screen's test
            return 0
        if _hopeless(cons, self.gain, P):
            return None
        found = self._first_terminal()
        return None if found is None else found[0]

    def _first_terminal(self) -> tuple[int, tuple[int, int, int]] | None:
        """(fewest charges, end) of the route's terminal states: the first
        count t, in count order, whose level after some edge e is at or above
        ``needs[0][e + 1]``. ``end`` = (e, count before it, bit) at the first
        such e; the bit is 1 when the charged child of ``levels[t - 1][e]``
        gets there, which the sweep prefers to the plain child of count t.
        None when no count does."""
        cons, P, levels, need = self.cons, self.inst.P, self.levels, self.needs[0]
        m = len(cons)
        for t in range(m + 1):
            if t == len(levels):
                self._grow()
            row = levels[t]
            for e in range(m):
                r_e = need[e + 1]
                if row[e + 1] >= r_e:
                    below = levels[t - 1][e] if t else -math.inf
                    # needs are nonnegative, so "terminal" implies "not depleted"
                    bit = int(below >= 0.0 and min(below - cons[e] + self.gain[e], P) >= r_e)
                    return t, (e, t - bit, bit)
        return None

    def insertion_count(self, pos: int, c1: float, c2: float) -> int | None:
        """``min_charge_count`` of the route with a customer inserted at
        node position ``pos``, between new edges of lengths ``c1`` and
        ``c2``: the levels before edge pos - 1, carried over the new edges,
        joined with the needs before edge pos."""
        inst = self.inst
        rho_t, gamma, P = inst.rho_t, inst.gamma, inst.P
        ce1, ge1, ce2, ge2 = rho_t * c1, gamma * c1, rho_t * c2, gamma * c2
        tol = margin(inst, self.length + c1 + c2)
        e = pos - 1
        levels, needs = self.levels, self.needs
        before = between = -math.inf      # at the count below t
        after = []                        # per count, after the new edges
        for t in range(len(self.cons) + 2):
            if t == len(levels):
                self._grow()
            if self.tie_levels <= e or self.tie_needs >= pos:
                break
            level = levels[t][e]
            mid = _step(level, before, ce1, ge1, P, tol)
            end = _step(mid, between, ce2, ge2, P, tol)
            if mid < 0.0 <= mid + tol or end < 0.0 <= end + tol:
                break
            after.append(end)
            before, between = level, mid
            unsure = False
            for k in range(t + 1):
                gap = after[k] - needs[t - k][pos]
                if gap > tol:
                    return t
                if gap >= -tol:
                    unsure = True
            if unsure:
                break
        else:
            return None
        return CountTables(self.lengths[:e] + [c1, c2] + self.lengths[pos:], inst).route_count()


def brute_force_patterns(route: Route, inst: Instance) -> BdpResult:
    """Ground-truth enumeration: replay all 2^m patterns, keep the minimal antichain.

    Feasibility of a pattern means its full-route battery replay never drops
    below zero. Shares only the preprocessing shortcuts with the sweep. At a
    battery tie inside `margin`, the float replay can drop a pattern that
    the sweep keeps.
    """
    cons, gain = _edge_consumption(route, inst)
    cls = _screen(cons, gain, inst.P)
    if cls is RouteClass.TRIVIAL_NO_CHARGE:
        return _result([0], cls)
    if cls is RouteClass.INFEASIBLE:
        return BdpResult(RouteClass.INFEASIBLE, [])
    m = len(cons)
    size = 1 << m
    masks = np.arange(size, dtype=np.int64)
    level = np.full(size, inst.P, dtype=np.float64)
    ok = np.ones(size, dtype=bool)
    for e in range(m):
        bits = ((masks >> e) & 1).astype(np.float64)
        level = np.minimum(level - cons[e] + gain[e] * bits, inst.P)
        ok &= level >= 0.0
    return _result(_minimal_masks(int(s) for s in masks[ok]))
