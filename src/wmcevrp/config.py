"""Solver configuration with JSON round-trip for reproducible experiments."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields

from .model import _is_finite


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and _is_finite(value)


def _shown(value) -> str:
    """A rejected value as an error message quotes it: an integer of more
    than 20 digits by its digit count, anything else by its repr."""
    if isinstance(value, int) and abs(value) >= 10**20:
        return f"an integer of {len(str(abs(value)))} digits"
    return repr(value)


# accepted values per annotated field type: (description, test)
_KINDS = {
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", _finite),
    "float | None": ("a finite number or null", lambda v: v is None or _finite(v)),
}
# smallest usable value of the settings that have one
_LOWER_BOUNDS = {"iterations": 0, "time_limit": 0, "segment_size": 1, "string_min": 1,
                 "init_temp_factor": 0, "assign_node_budget": 1, "heuristic_retries": 0}
# an operator's segment score sums up to segment_size scores, and an operator
# weight never exceeds the largest score or the weight floor; capping both
# keeps the segment sums and the weight sum of a family of up to this many
# operators finite
_MAX_OPERATORS = 64
# float max as an exact int: int / int divides any segment size without
# converting it to a float first
_FLOAT_MAX = int(sys.float_info.max)


def score_cap(segment_size: int) -> float:
    """Largest usable operator score, or weight floor, for a segment size."""
    return _FLOAT_MAX / (segment_size + _MAX_OPERATORS)


@dataclass
class SolverConfig:
    # stopping rule: iteration budget or wall-clock cap, whichever hits first
    iterations: int = 5000
    time_limit: float | None = None

    # adaptive operator weights
    segment_size: int = 100
    reaction: float = 0.5            # smoothing toward segment score/uses
    score_best: float = 33.0
    score_improve: float = 9.0       # better than incumbent, not a new best
    score_accept_worse: float = 13.0
    weight_floor: float = 1e-6

    # simulated-annealing acceptance for the incumbent
    init_temp_factor: float = 0.05
    cooling: float = 0.9975

    # removal sizing
    removal_min_frac: float = 0.1
    removal_max_frac: float = 0.3
    string_min: int = 2
    string_max: int = 6

    # relatedness weights for similarity removal
    shaw_distance_weight: float = 0.75
    shaw_demand_weight: float = 0.25

    # charging layer
    bdp_max_edges: int = 20
    assign_node_budget: int = 50_000
    heuristic_retries: int = 50
    mct_transfer_depletes: bool = True
    # coordination is exact only while the pattern combinations and the
    # fewest duties stay this small, greedy otherwise
    lns_exact_combos: int = 256
    lns_exact_duties: int = 12

    def __post_init__(self):
        """Reject a mistyped or unusable setting with ValueError."""
        for f in fields(self):
            value = getattr(self, f.name)
            kind, accepts = _KINDS[f.type]
            if not accepts(value):
                raise ValueError(f"{f.name} must be {kind}, got {_shown(value)}")
            low = _LOWER_BOUNDS.get(f.name)
            if low is not None and value is not None and value < low:
                raise ValueError(f"{f.name} must be at least {low}, got {_shown(value)}")
        if not 0 <= self.reaction <= 1:
            raise ValueError(f"reaction must be in [0, 1], got {_shown(self.reaction)}")
        if not 0 < self.cooling <= 1:
            raise ValueError(f"cooling must be in (0, 1], got {_shown(self.cooling)}")
        if self.weight_floor <= 0:
            raise ValueError(f"weight_floor must be > 0, got {_shown(self.weight_floor)}")
        cap = score_cap(self.segment_size)
        for name in ("score_best", "score_improve", "score_accept_worse", "weight_floor"):
            value = getattr(self, name)
            if not 0 <= value <= cap:
                raise ValueError(f"{name} must be in [0, {cap:.6g}] for segment_size "
                                 f"{_shown(self.segment_size)}, got {_shown(value)}")
        for name in ("removal_min_frac", "removal_max_frac"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {_shown(value)}")
        if self.removal_min_frac > self.removal_max_frac:
            raise ValueError(f"removal_min_frac {_shown(self.removal_min_frac)} exceeds "
                             f"removal_max_frac {_shown(self.removal_max_frac)}")
        if self.string_min > self.string_max:
            raise ValueError(f"string_min {_shown(self.string_min)} exceeds "
                             f"string_max {_shown(self.string_max)}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "SolverConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "SolverConfig":
        with open(path) as f:
            return cls.from_json(json.load(f))
