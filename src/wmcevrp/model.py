"""Core data model for dual-fleet delivery routing with in-motion charging.

Customers 1..n (hospitals) are served by battery-electric medical transport
vehicles (MTEVs). Mobile charging trucks (MCTs) can recharge an MTEV while
both drive the same arc. Node 0 is the departure depot and node n+1 is its
physical copy acting as the return depot, so the distance matrix is
(n+2) x (n+2). Travel time equals distance throughout (one matrix serves
both roles).
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

EPS = 1e-6

CONSTRAINT_FAMILIES = (
    "flow",
    "coverage",
    "timing",
    "sync",
    "energy-mtev",
    "energy-mct",
    "capacity",
    "usage",
)

INSTANCE_FIELDS = (
    "n", "dist", "demand", "P", "B", "Q", "rho_t", "rho_e", "rho_c",
    "gamma", "phi", "max_mtev", "max_mct",
)


def _is_int(value) -> bool:
    """Python or numpy integer. A bool is an int subclass but neither an id
    nor a count, so subclasses are rejected."""
    return type(value) is int or isinstance(value, np.integer)


def _is_real(value) -> bool:
    """Python or numpy real number; a bool is not one here."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:                # an int beyond the float range
        return False


def _number_matrix(value) -> np.ndarray:
    """A float array from a nested list or array of numbers; ValueError for
    ragged nesting, strings, bools, None or ints beyond the int64 range."""
    try:
        raw = np.asarray(value)
    except ValueError as exc:            # ragged nesting
        raise ValueError(f"dist must be a matrix of numbers: {exc}") from None
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"dist must be a matrix of numbers, got {raw.dtype} entries")
    return np.asarray(raw, dtype=float)


def _is_node(u, lo: int, hi: int) -> bool:
    return _is_int(u) and lo <= u <= hi


class RouteStructureError(ValueError):
    """A route or pattern is malformed: missing depot anchors, bad width."""


class InfeasibleInstanceError(RuntimeError):
    """No coverage-complete solution can exist for the instance."""


@dataclass(eq=False)
class Instance:
    """Immutable problem data. Safe to share across concurrent workers."""

    n: int
    dist: np.ndarray          # (n+2) x (n+2) symmetric distances, zero diagonal
    demand: list[int]         # demand[i-1] is the demand of customer i
    P: float                  # MTEV battery capacity
    B: float                  # MCT battery capacity
    Q: float                  # MTEV load capacity
    rho_t: float              # MTEV energy consumed per unit distance
    rho_e: float              # acquisition cost per deployed MTEV
    rho_c: float              # acquisition cost per deployed MCT
    gamma: float              # energy delivered per unit distance while co-traveling
    phi: float                # MCT energy consumed per unit distance
    max_mtev: int
    max_mct: int

    def __post_init__(self):
        self.dist = _number_matrix(self.dist)
        if not isinstance(self.demand, (list, tuple, np.ndarray)):
            raise ValueError(f"demand must be a list, got {self.demand!r}")
        self.demand = list(self.demand)
        self.validate()
        self.demand = [int(d) for d in self.demand]

    @property
    def depot_end(self) -> int:
        return self.n + 1

    @property
    def customers(self) -> range:
        return range(1, self.n + 1)

    def demand_of(self, node: int) -> int:
        return self.demand[node - 1]

    def route_distance(self, nodes) -> float:
        d = self.dist
        total = 0.0
        for i, j in zip(nodes, nodes[1:]):
            total += d[i, j]
        return float(total)

    def validate(self) -> None:
        if not _is_int(self.n) or self.n < 0:
            raise ValueError(f"n must be an integer >= 0, got {self.n!r}")
        for name in ("P", "B", "Q", "rho_t", "rho_e", "rho_c", "gamma", "phi"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not _is_finite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be > 0")
        size = self.n + 2
        if self.dist.shape != (size, size):
            raise ValueError(f"dist must be {size}x{size}, got {self.dist.shape}")
        if not np.isfinite(self.dist).all():
            raise ValueError("dist entries must be finite")
        if not np.array_equal(self.dist, self.dist.T):
            raise ValueError("dist must be symmetric")
        if (self.dist < 0).any():
            raise ValueError("dist entries must be nonnegative")
        if np.diagonal(self.dist).any():
            raise ValueError("dist diagonal must be zero")
        if not np.array_equal(self.dist[-1], self.dist[0]):
            raise ValueError("row for node n+1 must equal row for node 0")
        if len(self.demand) != self.n:
            raise ValueError(f"expected {self.n} demands, got {len(self.demand)}")
        for d in self.demand:
            if not _is_int(d):
                raise ValueError(f"demands must be integers, got {d!r}")
        if any(d < 1 for d in self.demand):
            raise ValueError("demands must be >= 1")
        for name in ("max_mtev", "max_mct"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError("fleet caps must be >= 0")
        if self.gamma <= self.rho_t:
            warnings.warn(
                "gamma <= rho_t: in-motion charging yields no net energy gain",
                stacklevel=2,
            )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dist": [[float(x) for x in row] for row in self.dist],
            "demand": list(self.demand),
            "P": float(self.P),
            "B": float(self.B),
            "Q": float(self.Q),
            "rho_t": float(self.rho_t),
            "rho_e": float(self.rho_e),
            "rho_c": float(self.rho_c),
            "gamma": float(self.gamma),
            "phi": float(self.phi),
            "max_mtev": int(self.max_mtev),
            "max_mct": int(self.max_mct),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        if not isinstance(data, dict):
            raise ValueError("instance JSON must be an object")
        missing = [k for k in INSTANCE_FIELDS if k not in data]
        if missing:
            raise ValueError(f"instance JSON missing fields: {missing}")
        return cls(**{k: data[k] for k in INSTANCE_FIELDS})

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, sort_keys=True)

    @classmethod
    def load(cls, path) -> "Instance":
        with open(path) as f:
            return cls.from_json(json.load(f))


@dataclass
class Route:
    """Ordered node sequence of one vehicle: depot 0 ... depot n+1."""

    vehicle: int
    nodes: list[int]

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.nodes, self.nodes[1:]))

    @property
    def interior(self) -> list[int]:
        return self.nodes[1:-1]

    def serves_customers(self) -> bool:
        return len(self.nodes) > 2

    def copy(self) -> "Route":
        return Route(self.vehicle, list(self.nodes))


def make_route(vehicle: int, interior, inst: Instance) -> Route:
    return Route(vehicle, [0, *interior, inst.depot_end])


@dataclass
class Violation:
    family: str               # one of CONSTRAINT_FAMILIES
    vehicle: str              # "mtev:3", "mct:0", or "" for global findings
    detail: str
    magnitude: float = 0.0


@dataclass
class FeasibilityReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def families(self) -> set[str]:
        return {v.family for v in self.violations}

    def __str__(self) -> str:
        if self.passed:
            return "feasible"
        lines = [f"{len(self.violations)} violation(s):"]
        for v in self.violations:
            lines.append(f"  [{v.family}] {v.vehicle} {v.detail} (magnitude {v.magnitude:g})")
        return "\n".join(lines)


@dataclass
class Solution:
    """Routes for both fleets plus per-edge charging assignments and traces.

    charge_assign[r][e] is the serving MCT index for edge e of MTEV route r,
    or None when no charging happens on that edge.
    """

    mtev_routes: list[Route] = field(default_factory=list)
    charge_assign: list[list[int | None]] = field(default_factory=list)
    mct_routes: list[Route] = field(default_factory=list)
    mtev_times: list[list[float]] = field(default_factory=list)
    mct_times: list[list[float]] = field(default_factory=list)
    mtev_battery: list[list[float]] = field(default_factory=list)
    mct_battery: list[list[float]] = field(default_factory=list)
    used_mtev: list[bool] = field(default_factory=list)
    used_mct: list[bool] = field(default_factory=list)
    total_cost: float = 0.0

    @classmethod
    def from_routes(cls, routes: list[Route]) -> "Solution":
        return cls(
            mtev_routes=[r.copy() for r in routes],
            charge_assign=[[None] * (len(r.nodes) - 1) for r in routes],
        )

    def copy(self) -> "Solution":
        return Solution(
            mtev_routes=[r.copy() for r in self.mtev_routes],
            charge_assign=[list(a) for a in self.charge_assign],
            mct_routes=[r.copy() for r in self.mct_routes],
            mtev_times=[list(t) for t in self.mtev_times],
            mct_times=[list(t) for t in self.mct_times],
            mtev_battery=[list(b) for b in self.mtev_battery],
            mct_battery=[list(b) for b in self.mct_battery],
            used_mtev=list(self.used_mtev),
            used_mct=list(self.used_mct),
            total_cost=self.total_cost,
        )

    def to_json(self) -> dict:
        mtev = []
        for idx, route in enumerate(self.mtev_routes):
            assign = self.charge_assign[idx] if idx < len(self.charge_assign) else []
            edges = [
                {"tail": int(i), "head": int(j),
                 "mct_id": None if e >= len(assign) or assign[e] is None else int(assign[e])}
                for e, (i, j) in enumerate(route.edges())
            ]
            mtev.append({
                "vehicle": int(route.vehicle),
                "nodes": [int(u) for u in route.nodes],
                "arrival_times": [float(t) for t in (self.mtev_times[idx] if idx < len(self.mtev_times) else [])],
                "battery": [float(b) for b in (self.mtev_battery[idx] if idx < len(self.mtev_battery) else [])],
                "edges": edges,
            })
        mct = []
        for idx, route in enumerate(self.mct_routes):
            mct.append({
                "vehicle": int(route.vehicle),
                "nodes": [int(u) for u in route.nodes],
                "arrival_times": [float(t) for t in (self.mct_times[idx] if idx < len(self.mct_times) else [])],
                "battery": [float(b) for b in (self.mct_battery[idx] if idx < len(self.mct_battery) else [])],
            })
        return {
            "mtev": mtev,
            "mct": mct,
            "used_mtev": [bool(u) for u in self.used_mtev],
            "used_mct": [bool(u) for u in self.used_mct],
            "total_cost": float(self.total_cost),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, data) -> "Solution":
        """Solution from its JSON form; ValueError when the form is malformed.

        Node ids and truck ids (`mct_id`) pass through unchecked: a bad id is
        a finding of `check_feasibility`, not a parse error.
        """
        if not isinstance(data, dict):
            raise ValueError("solution JSON must be an object")
        sol = cls()
        for idx, entry in enumerate(_json_list(data.get("mtev", []), "mtev")):
            where = f"mtev[{idx}]"
            route, times, battery = _json_route(entry, where)
            edges = _json_list(entry.get("edges", []), f"{where}.edges")
            if not all(isinstance(e, dict) for e in edges):
                raise ValueError(f"{where}.edges must hold objects")
            sol.mtev_routes.append(route)
            sol.charge_assign.append([e.get("mct_id") for e in edges])
            sol.mtev_times.append(times)
            sol.mtev_battery.append(battery)
        for idx, entry in enumerate(_json_list(data.get("mct", []), "mct")):
            route, times, battery = _json_route(entry, f"mct[{idx}]")
            sol.mct_routes.append(route)
            sol.mct_times.append(times)
            sol.mct_battery.append(battery)
        sol.used_mtev = [bool(u) for u in _json_list(data.get("used_mtev", []), "used_mtev")]
        sol.used_mct = [bool(u) for u in _json_list(data.get("used_mct", []), "used_mct")]
        sol.total_cost = _json_number(data.get("total_cost", 0.0), "total_cost")
        return sol


def _json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list")
    return value


def _json_number(x, where: str) -> float:
    """A finite number as a float; a bool is not a number here."""
    if not ((_is_int(x) or isinstance(x, float)) and _is_finite(x)):
        raise ValueError(f"{where} must be a finite number, got {x!r}")
    return float(x)


def _json_numbers(value, where: str) -> list[float]:
    return [_json_number(x, f"{where}[{k}]") for k, x in enumerate(_json_list(value, where))]


def _json_route(entry, where: str) -> tuple[Route, list[float], list[float]]:
    """Route, arrival times and battery trace of one vehicle entry."""
    if not isinstance(entry, dict) or "vehicle" not in entry or "nodes" not in entry:
        raise ValueError(f"{where} must be an object with vehicle and nodes")
    nodes = list(_json_list(entry["nodes"], f"{where}.nodes"))
    return (Route(entry["vehicle"], nodes),
            _json_numbers(entry.get("arrival_times", []), f"{where}.arrival_times"),
            _json_numbers(entry.get("battery", []), f"{where}.battery"))


def _require_anchors(route: Route, inst: Instance) -> None:
    nodes = route.nodes
    if len(nodes) < 2 or nodes[0] != 0 or nodes[-1] != inst.depot_end:
        raise RouteStructureError(
            f"route of vehicle {route.vehicle} must start at depot 0 and end at depot {inst.depot_end}"
        )


def pattern_bits(pattern, width: int) -> list[int]:
    """Normalize a charging pattern (mask object or 0/1 sequence) to a bit list."""
    if hasattr(pattern, "mask") and hasattr(pattern, "width"):
        if pattern.width != width:
            raise RouteStructureError(
                f"pattern width {pattern.width} does not match edge count {width}"
            )
        return [(pattern.mask >> e) & 1 for e in range(width)]
    bits = [int(b) for b in pattern]
    if len(bits) != width:
        raise RouteStructureError(
            f"pattern length {len(bits)} does not match edge count {width}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError("pattern bits must be 0 or 1")
    return bits


def realized_bits(sol: Solution, route_idx: int) -> list[int]:
    """Charging bits actually assigned on a route's edges (1 iff an MCT serves it)."""
    assign = sol.charge_assign[route_idx]
    return [0 if a is None else 1 for a in assign]


def route_energy_profile(route: Route, pattern, inst: Instance) -> list[float]:
    """Battery level at every node of the route under a charging pattern.

    Starts full at P; each edge consumes rho_t*c and, when its bit is set,
    gains gamma*c, clamped at P. The trace may go negative (diagnostic use).
    """
    edges = route.edges()
    bits = pattern_bits(pattern, len(edges))
    level = inst.P
    trace = [level]
    for (i, j), bit in zip(edges, bits):
        c = float(inst.dist[i, j])
        level = min(level - inst.rho_t * c + inst.gamma * c * bit, inst.P)
        trace.append(level)
    return trace


def mtev_arrival_times(route: Route, inst: Instance) -> list[float]:
    """Earliest arrival times along an MTEV route (travel time = distance)."""
    t = 0.0
    times = [0.0]
    for i, j in route.edges():
        t += float(inst.dist[i, j])
        times.append(t)
    return times


def routing_cost(routes: list[Route], inst: Instance) -> float:
    """Travel energy plus MTEV acquisition cost for a set of MTEV routes."""
    total = 0.0
    used = 0
    for route in routes:
        total += inst.rho_t * inst.route_distance(route.nodes)
        if route.serves_customers():
            used += 1
    return total + inst.rho_e * used


def evaluate_cost(sol: Solution, inst: Instance) -> float:
    """Objective value: MTEV travel energy plus acquisition costs of both fleets.

    A vehicle counts as deployed iff its route serves at least one customer.
    MCT travel distance carries no cost term.
    """
    total = 0.0
    used_e = 0
    for route in sol.mtev_routes:
        _require_anchors(route, inst)
        total += inst.rho_t * inst.route_distance(route.nodes)
        if route.serves_customers():
            used_e += 1
    used_c = 0
    for route in sol.mct_routes:
        _require_anchors(route, inst)
        if route.serves_customers():
            used_c += 1
    return total + inst.rho_e * used_e + inst.rho_c * used_c


def _duties_per_mct(sol: Solution, inst: Instance, mtev_times: list[list[float]],
                    skip: set[int] = frozenset()):
    """Group charging obligations by serving MCT; set aside entries with invalid
    truck ids. MTEV routes listed in ``skip`` contribute no duties."""
    per_mct = [[] for _ in sol.mct_routes]
    bad = []
    for r, route in enumerate(sol.mtev_routes):
        if r in skip:
            continue
        assign = sol.charge_assign[r] if r < len(sol.charge_assign) else []
        for e, (i, j) in enumerate(route.edges()):
            if e >= len(assign) or assign[e] is None:
                continue
            c = assign[e]
            dist = float(inst.dist[i, j])
            duty = {
                "route": r, "edge": e, "tail": i, "head": j,
                "start": mtev_times[r][e], "distance": dist,
                "transfer": inst.gamma * dist,
            }
            if not (_is_int(c) and 0 <= c < len(sol.mct_routes)):
                bad.append((c, duty))
            else:
                per_mct[c].append(duty)
    for duties in per_mct:
        duties.sort(key=lambda d: (d["start"], d["route"], d["edge"]))
    return per_mct, bad


def _match_duties(route: Route, duties: list[dict]):
    """Match an MCT's duties to its route edges in order of duty start time.

    Returns (per-edge duty or None, unmatched duties).
    """
    pending = list(duties)
    matches: list[dict | None] = [None] * (len(route.nodes) - 1)
    for k, (i, j) in enumerate(route.edges()):
        hit = None
        for duty in pending:
            if duty["tail"] == i and duty["head"] == j:
                hit = duty
                break
        if hit is not None:
            matches[k] = hit
            pending.remove(hit)
    return matches, pending


def build_schedule(sol: Solution, inst: Instance, transfer_depletes: bool = True) -> Solution:
    """Fill arrival times and battery traces using earliest-arrival semantics.

    MTEVs depart as soon as they arrive. An MCT waits at the tail of a
    charging arc until its MTEV arrives, then the pair departs together;
    if the MCT shows up late the schedule still advances (the feasibility
    checker reports the synchronization violation).
    """
    out = sol.copy()
    out.mtev_times = [mtev_arrival_times(r, inst) for r in out.mtev_routes]
    out.mtev_battery = [
        route_energy_profile(r, realized_bits(out, idx), inst)
        for idx, r in enumerate(out.mtev_routes)
    ]
    per_mct, _bad = _duties_per_mct(out, inst, out.mtev_times)
    out.mct_times = []
    out.mct_battery = []
    for c_idx, route in enumerate(out.mct_routes):
        matches, _missing = _match_duties(route, per_mct[c_idx])
        times = [0.0]
        level = inst.B
        trace = [level]
        now = 0.0
        for k, (i, j) in enumerate(route.edges()):
            duty = matches[k]
            depart = now if duty is None else max(now, duty["start"])
            c = float(inst.dist[i, j])
            now = depart + c
            times.append(now)
            level -= inst.phi * c
            if duty is not None and transfer_depletes:
                level -= duty["transfer"]
            trace.append(level)
        out.mct_times.append(times)
        out.mct_battery.append(trace)
    return out


def finalize_solution(sol: Solution, inst: Instance, transfer_depletes: bool = True) -> Solution:
    """Schedule, battery traces, usage flags and objective value in one pass."""
    out = build_schedule(sol, inst, transfer_depletes)
    out.used_mtev = [r.serves_customers() for r in out.mtev_routes]
    out.used_mct = [r.serves_customers() for r in out.mct_routes]
    out.total_cost = float(evaluate_cost(out, inst))
    return out


def _check_route_structure(sol: Solution, inst: Instance,
                           out: list[Violation]) -> dict[str, set[int]]:
    """Flow findings per route. Returns the indices of flagged routes per fleet;
    the later checks skip them, since their node ids need not index dist."""
    n_end = inst.depot_end
    broken: dict[str, set[int]] = {"mtev": set(), "mct": set()}
    for kind, routes in (("mtev", sol.mtev_routes), ("mct", sol.mct_routes)):
        for idx, route in enumerate(routes):
            tag = f"{kind}:{idx}"
            nodes = route.nodes
            found = len(out)
            if len(nodes) < 2 or not (_is_node(nodes[0], 0, 0)
                                      and _is_node(nodes[-1], n_end, n_end)):
                out.append(Violation("flow", tag, "route must run from depot 0 to the return depot"))
                broken[kind].add(idx)
                continue
            interior = nodes[1:-1]
            if not all(_is_node(u, 1, inst.n) for u in interior):
                if any(u in (0, n_end) for u in interior):
                    out.append(Violation("flow", tag, "depot appears mid-route"))
                out.append(Violation("flow", tag, "unknown node in route"))
            elif kind == "mtev" and len(set(interior)) != len(interior):
                out.append(Violation("flow", tag, "customer repeated within route"))
            if len(out) > found:
                broken[kind].add(idx)
    return broken


def _sanitized_copy(sol: Solution, inst: Instance, broken: dict[str, set[int]]) -> Solution:
    """Copy that build_schedule accepts: flagged routes become uncharged depot
    stubs and charge assignments match each route's edge count."""
    out = sol.copy()
    stub = [0, inst.depot_end]
    for kind, routes in (("mtev", out.mtev_routes), ("mct", out.mct_routes)):
        for idx in broken[kind]:
            routes[idx] = Route(routes[idx].vehicle, list(stub))
    rows = []
    for idx, route in enumerate(out.mtev_routes):
        width = max(len(route.nodes) - 1, 0)
        row = []
        if idx < len(out.charge_assign) and idx not in broken["mtev"]:
            row = list(out.charge_assign[idx])
        row = (row + [None] * width)[:width]
        rows.append(row)
    out.charge_assign = rows
    return out


def _stored_or_derived_times(sol: Solution, inst: Instance, broken: dict[str, set[int]]):
    """Use stored schedules when shapes line up, else derive earliest-arrival ones."""
    ok_mtev = len(sol.mtev_times) == len(sol.mtev_routes) and all(
        len(t) == len(r.nodes) for t, r in zip(sol.mtev_times, sol.mtev_routes)
    )
    ok_mct = len(sol.mct_times) == len(sol.mct_routes) and all(
        len(t) == len(r.nodes) for t, r in zip(sol.mct_times, sol.mct_routes)
    )
    if ok_mtev and ok_mct:
        return sol.mtev_times, sol.mct_times
    scheduled = build_schedule(_sanitized_copy(sol, inst, broken), inst)
    mtev = sol.mtev_times if ok_mtev else scheduled.mtev_times
    mct = sol.mct_times if ok_mct else scheduled.mct_times
    return mtev, mct


def check_feasibility(sol: Solution, inst: Instance, transfer_depletes: bool = True) -> FeasibilityReport:
    """Path-wise verification of every model constraint family.

    Battery and time quantities are recomputed along the visited sequences;
    stored traces are presentation data and are not trusted. All findings
    are returned in the report, nothing raises.
    """
    out: list[Violation] = []
    broken = _check_route_structure(sol, inst, out)

    # customers per MTEV route; only flagged routes can hold other ids
    served = [[u for u in route.interior if _is_node(u, 1, inst.n)]
              if idx in broken["mtev"] else route.interior
              for idx, route in enumerate(sol.mtev_routes)]

    # unique coverage of every customer
    count = {u: 0 for u in inst.customers}
    for customers in served:
        for u in customers:
            count[u] += 1
    for u, k in count.items():
        if k != 1:
            out.append(Violation("coverage", "", f"customer {u} served {k} times", abs(k - 1)))

    # load capacity per MTEV
    for idx, customers in enumerate(served):
        load = sum(inst.demand_of(u) for u in customers)
        if load > inst.Q + EPS:
            out.append(Violation("capacity", f"mtev:{idx}",
                                 f"load {load} exceeds capacity {inst.Q}", load - inst.Q))

    mtev_times, mct_times = _stored_or_derived_times(sol, inst, broken)

    # time propagation along visited sequences
    for kind, routes, times in (("mtev", sol.mtev_routes, mtev_times),
                                ("mct", sol.mct_routes, mct_times)):
        for idx, (route, t) in enumerate(zip(routes, times)):
            tag = f"{kind}:{idx}"
            if not t or idx in broken[kind]:
                continue
            if abs(t[0]) > EPS:
                out.append(Violation("timing", tag, "departure time at depot is not 0", abs(t[0])))
            for k, (i, j) in enumerate(route.edges()):
                need = t[k] + float(inst.dist[i, j])
                if t[k + 1] < need - EPS:
                    out.append(Violation("timing", tag,
                                         f"arrival at position {k + 1} precedes travel time",
                                         need - t[k + 1]))

    # charging assignment shape
    for idx, route in enumerate(sol.mtev_routes):
        assign = sol.charge_assign[idx] if idx < len(sol.charge_assign) else []
        if len(assign) != len(route.nodes) - 1:
            out.append(Violation("sync", f"mtev:{idx}",
                                 "charge assignment length does not match edge count"))

    per_mct, bad_ids = _duties_per_mct(sol, inst, mtev_times, broken["mtev"])
    for c, duty in bad_ids:
        out.append(Violation("sync", f"mtev:{duty['route']}",
                             f"edge ({duty['tail']},{duty['head']}) assigned to unknown truck {c}"))

    # MTEV battery recursion under the realized pattern
    for idx, route in enumerate(sol.mtev_routes):
        if idx in broken["mtev"]:
            continue
        if len(sol.charge_assign[idx] if idx < len(sol.charge_assign) else []) != len(route.nodes) - 1:
            continue
        trace = route_energy_profile(route, realized_bits(sol, idx), inst)
        for k, level in enumerate(trace):
            if level < -EPS:
                i, j = route.edges()[k - 1]
                out.append(Violation("energy-mtev", f"mtev:{idx}",
                                     f"battery {level:.6g} after edge {k} ({i},{j})", -level))
                break

    # MCT duties: co-traversal, synchronization, battery
    for c_idx, route in enumerate(sol.mct_routes):
        if c_idx in broken["mct"]:
            continue
        duties = per_mct[c_idx]
        matches, missing = _match_duties(route, duties)
        tag = f"mct:{c_idx}"
        for duty in missing:
            out.append(Violation("sync", tag,
                                 f"assigned arc ({duty['tail']},{duty['head']}) is never traversed"))
        times = mct_times[c_idx] if c_idx < len(mct_times) else []
        level = inst.B
        for k, (i, j) in enumerate(route.edges()):
            duty = matches[k]
            c = float(inst.dist[i, j])
            if duty is not None:
                if times and times[k] > duty["start"] + EPS:
                    out.append(Violation("sync", tag,
                                         f"arrives at node {i} after its MTEV (arc ({i},{j}))",
                                         times[k] - duty["start"]))
                if level < duty["transfer"] - EPS:
                    out.append(Violation("energy-mct", tag,
                                         f"stored energy {level:.6g} below transfer {duty['transfer']:.6g} at node {i}",
                                         duty["transfer"] - level))
            level -= inst.phi * c
            if duty is not None and transfer_depletes:
                level -= duty["transfer"]
            if level < -EPS:
                out.append(Violation("energy-mct", tag,
                                     f"battery {level:.6g} after arc ({i},{j})", -level))
                break

    # stored usage flags must agree with served customers
    if sol.used_mtev:
        derived = [r.serves_customers() for r in sol.mtev_routes]
        if list(sol.used_mtev) != derived:
            out.append(Violation("usage", "", "MTEV usage flags disagree with routes"))
    if sol.used_mct:
        derived = [r.serves_customers() for r in sol.mct_routes]
        if list(sol.used_mct) != derived:
            out.append(Violation("usage", "", "MCT usage flags disagree with routes"))

    return FeasibilityReport(out)
