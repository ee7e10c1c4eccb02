"""Charging-pattern enumeration for a fixed route via bitmask dynamic programming.

A pattern is a bitmask over the route's m edges: bit e set means the vehicle
is charged in motion across edge e+1. The enumerator returns the minimal
antichain of feasible patterns (no retained pattern is a superset of another)
in the order coordination branches over them: by cardinality, then mask
value. A caller that needs a pattern's battery levels replays it with
`model.route_energy_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import SolverConfig
from .model import Instance, Route


class RouteClass(Enum):
    TRIVIAL_NO_CHARGE = "trivially_feasible_no_charge"
    INFEASIBLE = "infeasible"
    NEEDS_BDP = "needs_bdp"
    ENUMERATED = "enumerated"


@dataclass(frozen=True)
class ChargePattern:
    """Bitmask over route edges; bit e (lsb-first) covers edge e+1.

    Printed bitstrings run left to right starting at edge 1.
    """

    mask: int
    width: int

    def edges(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.width) if (self.mask >> e) & 1)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def bitstring(self) -> str:
        return "".join("1" if (self.mask >> e) & 1 else "0" for e in range(self.width))

    @classmethod
    def from_bitstring(cls, s: str) -> "ChargePattern":
        mask = 0
        for e, ch in enumerate(s):
            if ch == "1":
                mask |= 1 << e
        return cls(mask, len(s))


@dataclass
class BdpResult:
    """Outcome of pattern enumeration for one route.

    ``patterns`` holds the retained patterns sorted by cardinality, then
    mask value, so the first one has the fewest charged arcs. ``fallback``
    marks a route longer than ``max_edges``: its one pattern is the
    charge-count DP's minimum-count witness, not the full antichain of the
    2^m sweep.
    """

    classification: RouteClass
    patterns: list[ChargePattern] = field(default_factory=list)
    fallback: bool = False

    def masks(self) -> set[int]:
        return {p.mask for p in self.patterns}

    def charged(self) -> int:
        """The edges that some pattern charges, as a mask: 0 exactly when
        the route never charges (or has no pattern at all)."""
        union = 0
        for p in self.patterns:
            union |= p.mask
        return union

    def min_cardinality(self) -> int | None:
        return self.patterns[0].cardinality if self.patterns else None

    @property
    def feasible(self) -> bool:
        return self.classification is not RouteClass.INFEASIBLE


def _edge_consumption(route: Route, inst: Instance, lengths=None):
    """Per-edge consumption rho_t*c and charging gain gamma*c; ``lengths``
    are the route's edge lengths c when the caller has them as floats."""
    if lengths is None:
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
    total = sum(cons)
    if len(cons) == 1:
        return RouteClass.TRIVIAL_NO_CHARGE if cons[0] <= P else RouteClass.INFEASIBLE
    if total <= P:
        return RouteClass.TRIVIAL_NO_CHARGE
    for ce, ge in zip(cons, gain):
        if ce - ge > P:
            return RouteClass.INFEASIBLE
    return RouteClass.NEEDS_BDP


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


def prune_supersets(patterns) -> list[ChargePattern]:
    """Minimal antichain: drop any pattern that is a strict superset of another.

    Duplicates collapse to one copy. Output is sorted by increasing mask value.
    """
    items = list(patterns)
    if not items:
        return []
    width = items[0].width
    if any(p.width != width for p in items):
        raise ValueError("patterns must share one bit width")
    return [ChargePattern(m, width) for m in sorted(_minimal_masks({p.mask for p in items}))]


def _result(patterns, cls: RouteClass = RouteClass.ENUMERATED,
            fallback: bool = False) -> BdpResult:
    """``patterns``, already in (cardinality, mask) order; INFEASIBLE when
    there are none."""
    if not patterns:
        return BdpResult(RouteClass.INFEASIBLE, [], fallback)
    return BdpResult(cls, patterns, fallback)


def _min_count_sweep(cons, gain, req, P: float,
                     history: list | None = None) -> tuple[int, tuple[int, int, int]] | None:
    """(fewest set bits, end) over the masks that ``_sweep`` marks terminal;
    None when no mask is terminal.

    Keeps one state per charge count k: the highest battery level over the
    still-active masks with k charges (the dominance rule of
    resource-constrained shortest paths). Levels are updated with the very
    float operations of ``_sweep``, and both updates are monotone under
    rounding, so the best state for k turns terminal exactly when some
    k-charge mask of the sweep does. O(m^2) instead of O(2^m).

    ``end`` = (edge, count before it, bit) is where the best state turned
    terminal. When a ``history`` list is given, the levels before each edge
    are appended to it, so that ``_witness`` can read one such mask back.
    """
    levels = [P]          # levels[k]; negative marks "no active mask"
    end = None
    best = None
    for e, (ce, ge, r_e) in enumerate(zip(cons, gain, req)):
        if history is not None:
            history.append(levels)
        width = len(levels) + 1 if best is None else best
        nxt = [-1.0] * width
        for k, base in enumerate(levels):
            if base < 0.0:
                continue
            child = base - ce + ge
            if child > P:
                child = P
            # req is nonnegative, so "terminal" implies "not depleted"
            nc = base - ce
            if nc >= r_e:
                if best is None or k < best:
                    best, end = k, (e, k, 0)
            elif nc >= 0.0 and k < width and nc > nxt[k]:
                nxt[k] = nc
            if child >= r_e:
                if best is None or k + 1 < best:
                    best, end = k + 1, (e, k, 1)
            elif child >= 0.0 and k + 1 < width and child > nxt[k + 1]:
                nxt[k + 1] = child
        if best is not None:
            del nxt[best:]
        if not any(level >= 0.0 for level in nxt):
            break
        levels = nxt
    return None if best is None else (best, end)


def _witness(history, cons, end) -> int:
    """The mask of the path that ends at ``end`` = (edge, count, bit), read back
    from the levels kept before each edge: a level came over edge f uncharged
    exactly when the level at the same count before f, minus cons[f] (the
    DP's own float operation), equals it; otherwise f was charged."""
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


def _sweep(cons, gain, req, P: float) -> set[int]:
    """Sweep edges with a single 2^m battery table updated in place.

    At each edge the charging child is evaluated first, then the no-charging
    update overwrites the parent slot. Marks: -1 infeasible, 0 active,
    1 terminal (battery already covers the rest of the route).
    """
    m = len(cons)
    size = 1 << m
    g = [0.0] * size
    v = [-1] * size
    g[0] = P
    v[0] = 0
    terminal: set[int] = set()
    for e in range(m):
        ce = cons[e]
        ge = gain[e]
        r_e = req[e]
        bit = 1 << e
        for s in range(1 << e):
            if v[s] != 0:
                continue
            base = g[s]
            child = base - ce + ge
            if child > P:
                child = P
            s2 = s | bit
            g[s2] = child
            if child < 0.0:
                v[s2] = -1
            elif child >= r_e:
                v[s2] = 1
                terminal.add(s2)
            else:
                v[s2] = 0
            nc = base - ce
            g[s] = nc
            if nc < 0.0:
                v[s] = -1
            elif nc >= r_e:
                v[s] = 1
                terminal.add(s)
            else:
                v[s] = 0
    return terminal


def enumerate_patterns(route: Route, inst: Instance,
                       max_edges: int = SolverConfig.bdp_max_edges,
                       lengths: list[float] | None = None) -> BdpResult:
    """Minimal feasible charging patterns for one route.

    Trivial and hopeless routes are classified without any search. Routes
    longer than ``max_edges`` get the charge-count DP's minimum-count witness
    as their single pattern instead of the exponential sweep (flagged via
    ``fallback``). ``lengths``, when given, must be the route's edge lengths
    as read from ``inst.dist``; they spare the numpy look-ups.
    """
    cons, gain = _edge_consumption(route, inst, lengths)
    m = len(cons)
    cls = _screen(cons, gain, inst.P)
    if cls is RouteClass.TRIVIAL_NO_CHARGE:
        return _result([ChargePattern(0, m)], cls)
    if cls is RouteClass.INFEASIBLE:
        return BdpResult(RouteClass.INFEASIBLE, [])
    req = _suffix_sums(cons)
    if m > max_edges:
        history: list = []
        found = _min_count_sweep(cons, gain, req, inst.P, history)
        witness = [ChargePattern(_witness(history, cons, found[1]), m)] if found else []
        return _result(witness, fallback=True)
    # charging never lowers a level, so feasibility is upward-closed and the
    # minimal terminal masks are the minimal feasible patterns
    terminal = _sweep(cons, gain, req, inst.P)
    return _result([ChargePattern(s, m) for s in _minimal_masks(terminal)])


def min_charge_count(route: Route, inst: Instance,
                     lengths: list[float] | None = None) -> int | None:
    """Fewest charged edges over the route's feasible patterns; None if infeasible.

    Exact at any route length: equals ``enumerate_patterns(route, inst,
    max_edges).min_cardinality()`` for every ``max_edges``, but runs a
    polynomial DP over charge counts instead of the 2^m sweep. Callers that
    need the patterns themselves still enumerate. ``lengths`` is as in
    ``enumerate_patterns``.
    """
    cons, gain = _edge_consumption(route, inst, lengths)
    cls = _screen(cons, gain, inst.P)
    if cls is RouteClass.TRIVIAL_NO_CHARGE:
        return 0
    if cls is RouteClass.INFEASIBLE:
        return None
    found = _min_count_sweep(cons, gain, _suffix_sums(cons), inst.P)
    return None if found is None else found[0]


def brute_force_patterns(route: Route, inst: Instance) -> BdpResult:
    """Ground-truth enumeration: replay all 2^m patterns, keep the minimal antichain.

    Feasibility of a pattern means its full-route battery replay never drops
    below zero. Shares only the preprocessing shortcuts with the sweep.
    """
    cls = preprocess_route(route, inst)
    if cls is RouteClass.TRIVIAL_NO_CHARGE:
        return _result([ChargePattern(0, len(route.nodes) - 1)], cls)
    if cls is RouteClass.INFEASIBLE:
        return BdpResult(RouteClass.INFEASIBLE, [])
    cons, gain = _edge_consumption(route, inst)
    m = len(cons)
    size = 1 << m
    masks = np.arange(size, dtype=np.int64)
    level = np.full(size, inst.P, dtype=np.float64)
    ok = np.ones(size, dtype=bool)
    for e in range(m):
        bits = ((masks >> e) & 1).astype(np.float64)
        level = np.minimum(level - cons[e] + gain[e] * bits, inst.P)
        ok &= level >= 0.0
    order = sorted((int(s) for s in masks[ok]), key=lambda s: (s.bit_count(), s))
    kept: list[int] = []
    for mask in order:
        if not any((k & mask) == k for k in kept):
            kept.append(mask)
    return _result([ChargePattern(s, m) for s in kept])

