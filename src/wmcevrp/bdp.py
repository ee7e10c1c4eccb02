"""Charging-pattern enumeration for a fixed route via bitmask dynamic programming.

A pattern is a bitmask over the route's m edges: bit e set means the vehicle
is charged in motion across edge e+1. The enumerator returns the minimal
antichain of feasible patterns (no retained pattern is a superset of another)
together with the battery level on route completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import Instance, Route

DEFAULT_MAX_EDGES = 20


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

    def bit(self, e: int) -> int:
        return (self.mask >> e) & 1

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

    ``patterns`` holds (pattern, final battery) pairs sorted by increasing
    mask value. ``fallback`` marks results produced by the greedy long-route
    fallback instead of the exact sweep.
    """

    classification: RouteClass
    patterns: list[tuple[ChargePattern, float]] = field(default_factory=list)
    fallback: bool = False

    def masks(self) -> set[int]:
        return {p.mask for p, _ in self.patterns}

    def min_cardinality(self) -> int | None:
        if not self.patterns:
            return None
        return min(p.cardinality for p, _ in self.patterns)

    @property
    def feasible(self) -> bool:
        return self.classification is not RouteClass.INFEASIBLE


def _edge_consumption(route: Route, inst: Instance):
    """Per-edge consumption rho_t*c and charging gain gamma*c."""
    cons = []
    gain = []
    for i, j in route.edges():
        c = float(inst.dist[i, j])
        cons.append(inst.rho_t * c)
        gain.append(inst.gamma * c)
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
    unique = sorted({p.mask for p in items})
    unique.sort(key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for mask in unique:
        if not any((k & mask) == k for k in kept):
            kept.append(mask)
    return [ChargePattern(m, width) for m in sorted(kept)]


def _trivial_result(route: Route, inst: Instance) -> BdpResult:
    cons, _ = _edge_consumption(route, inst)
    final = inst.P
    for ce in cons:
        final -= ce
    return BdpResult(RouteClass.TRIVIAL_NO_CHARGE,
                     [(ChargePattern(0, len(cons)), final)])


def _min_count_sweep(cons, gain, req, P: float) -> int | None:
    """Fewest set bits over the masks that ``_sweep`` marks terminal.

    Keeps one state per charge count k: the highest battery level over the
    still-active masks with k charges (the dominance rule of
    resource-constrained shortest paths). Levels are updated with the very
    float operations of ``_sweep``, and both updates are monotone under
    rounding, so the best state for k turns terminal exactly when some
    k-charge mask of the sweep does. O(m^2) instead of O(2^m).
    """
    levels = [P]          # levels[k]; negative marks "no active mask"
    best = None
    for ce, ge, r_e in zip(cons, gain, req):
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
                    best = k
            elif nc >= 0.0 and k < width and nc > nxt[k]:
                nxt[k] = nc
            if child >= r_e:
                if best is None or k + 1 < best:
                    best = k + 1
            elif child >= 0.0 and k + 1 < width and child > nxt[k + 1]:
                nxt[k + 1] = child
        if best is not None:
            del nxt[best:]
        if not any(level >= 0.0 for level in nxt):
            break
        levels = nxt
    return best


def greedy_fallback_pattern(route: Route, inst: Instance) -> BdpResult:
    """Single pattern for long routes: charge on the earliest edge whenever the
    battery would otherwise go negative."""
    cons, gain = _edge_consumption(route, inst)
    level = inst.P
    mask = 0
    for e, (ce, ge) in enumerate(zip(cons, gain)):
        if level - ce < 0.0:
            mask |= 1 << e
            level = min(level - ce + ge, inst.P)
            if level < 0.0:
                return BdpResult(RouteClass.INFEASIBLE, [], fallback=True)
        else:
            level -= ce
    return BdpResult(RouteClass.ENUMERATED,
                     [(ChargePattern(mask, len(cons)), level)], fallback=True)


def _replay_final(mask: int, cons, gain, P: float) -> float:
    level = P
    for e, (ce, ge) in enumerate(zip(cons, gain)):
        level = min(level - ce + ge * ((mask >> e) & 1), P)
    return level


def _finish_enumeration(terminal: dict[int, float], cons, gain, P: float) -> BdpResult:
    if not terminal:
        return BdpResult(RouteClass.INFEASIBLE, [])
    width = len(cons)
    minimal = prune_supersets(ChargePattern(m, width) for m in terminal)
    # final battery by full replay so values agree bit for bit with the
    # route energy profile
    patterns = [(p, _replay_final(p.mask, cons, gain, P)) for p in minimal]
    return BdpResult(RouteClass.ENUMERATED, patterns)


def _sweep(cons, gain, req, P: float) -> dict[int, float]:
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
    terminal: dict[int, float] = {}
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
                terminal[s2] = child - r_e
            else:
                v[s2] = 0
            nc = base - ce
            g[s] = nc
            if nc < 0.0:
                v[s] = -1
            elif nc >= r_e:
                v[s] = 1
                terminal[s] = nc - r_e
            else:
                v[s] = 0
    return terminal


def enumerate_patterns(route: Route, inst: Instance,
                       max_edges: int = DEFAULT_MAX_EDGES) -> BdpResult:
    """Minimal feasible charging patterns for one route.

    Trivial and hopeless routes are classified without any search. Routes
    longer than ``max_edges`` get a single greedy pattern instead of the
    exponential sweep (flagged via ``fallback``).
    """
    cons, gain = _edge_consumption(route, inst)
    cls = _screen(cons, gain, inst.P)
    if cls is RouteClass.TRIVIAL_NO_CHARGE:
        return _trivial_result(route, inst)
    if cls is RouteClass.INFEASIBLE:
        return BdpResult(RouteClass.INFEASIBLE, [])
    if len(cons) > max_edges:
        return greedy_fallback_pattern(route, inst)
    terminal = _sweep(cons, gain, _suffix_sums(cons), inst.P)
    return _finish_enumeration(terminal, cons, gain, inst.P)


def min_charge_count(route: Route, inst: Instance,
                     max_edges: int = DEFAULT_MAX_EDGES) -> int | None:
    """Fewest charged edges over the route's feasible patterns; None if infeasible.

    Always equals ``enumerate_patterns(route, inst, max_edges).min_cardinality()``
    (routes longer than ``max_edges`` count the greedy fallback pattern),
    but runs a polynomial DP over charge counts instead of the 2^m sweep.
    Callers that need the patterns themselves still enumerate.
    """
    cons, gain = _edge_consumption(route, inst)
    cls = _screen(cons, gain, inst.P)
    if cls is RouteClass.TRIVIAL_NO_CHARGE:
        return 0
    if cls is RouteClass.INFEASIBLE:
        return None
    if len(cons) > max_edges:
        return greedy_fallback_pattern(route, inst).min_cardinality()
    return _min_count_sweep(cons, gain, _suffix_sums(cons), inst.P)


def brute_force_patterns(route: Route, inst: Instance) -> BdpResult:
    """Ground-truth enumeration: replay all 2^m patterns, keep the minimal antichain.

    Feasibility of a pattern means its full-route battery replay never drops
    below zero. Shares only the preprocessing shortcuts with the sweep.
    """
    cls = preprocess_route(route, inst)
    if cls is RouteClass.TRIVIAL_NO_CHARGE:
        return _trivial_result(route, inst)
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
    feasible = masks[ok]
    finals = level[ok]
    if feasible.size == 0:
        return BdpResult(RouteClass.INFEASIBLE, [])
    by_mask = {int(s): float(b) for s, b in zip(feasible, finals)}
    order = sorted(by_mask, key=lambda s: (s.bit_count(), s))
    kept: list[int] = []
    for mask in order:
        if not any((k & mask) == k for k in kept):
            kept.append(mask)
    patterns = [(ChargePattern(s, m), by_mask[s]) for s in sorted(kept)]
    return BdpResult(RouteClass.ENUMERATED, patterns)

