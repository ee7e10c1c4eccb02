"""Per-layer tracing of the solver from outside the package.

`Tracer.install` replaces module attributes of the solver (functions, the
operator tables, one method) with wrappers that count calls and add up
`perf_counter` time, and `Tracer.uninstall` puts the originals back. No
file under src/ is edited. The wrappers draw nothing from any RNG, so a
traced run makes the same choices as an untraced one.

Wrapped names that start with an underscore are private and may be renamed
or deleted by later changes. When one is missing, the metrics it feeds are
dropped with a notice; a missing public name is an error.
"""

from __future__ import annotations

import time
from collections import defaultdict
from statistics import fmean


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.calls = defaultdict(int)
        self.secs = defaultdict(float)
        self.notices: list[str] = []
        self.dropped: set[str] = set()
        self.destroy_ops: list[str] = []
        self.repair_ops: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._foreign_depth = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        m = self.mods
        self._wrap(m.lns, "run", self._timed("lns.run"))
        self._wrap(m.lns, "initial_solution", self._timed("lns.initial_solution"))
        self._wrap(m.lns, "_coordinate_routes",
                   self._counted("lns.coordinate_routes", none_key="lns.coordinate_routes.none"),
                   drops=["lns.uncoordinated_ratio"])
        context = getattr(m.lns, "_Context", None)
        if context is None:
            self._drop("lns._Context", ["lns.memo_hit_ratio"])
        else:
            self._wrap(context, "patterns", self._counted("lns.patterns"),
                       drops=["lns.memo_hit_ratio"])
        self.destroy_ops = self._wrap_table("_DESTROY_FUNCS", m.lns.DESTROY_OPS,
                                            ["lns.destroy_s"], none_key=None)
        self.repair_ops = self._wrap_table("_REPAIR_FUNCS", m.lns.REPAIR_OPS,
                                           ["lns.repair_s", "lns.repair_failed_ratio"],
                                           none_key="lns.repair.none")

        self._wrap(m.bdp, "enumerate_patterns",
                   self._timed("bdp.enumerate", foreign=True, after=self._classify))
        self._wrap(m.bdp, "prune_supersets", self._timed("bdp.prune_supersets", foreign=True))

        self._wrap(m.coordination, "coordinate_exact",
                   self._timed("coordination.exact", foreign=True, after=self._exact_outcome))
        self._wrap(m.coordination, "coordinate_heuristic",
                   self._timed("coordination.heuristic", foreign=True, after=self._none_outcome))
        self._wrap(m.coordination, "_assign_exact", self._leaf_counter(),
                   drops=["coordination.assign_leaves", "coordination.duty_leaves"])
        self._wrap(m.coordination, "mct_lower_bound", self._counted("coordination.lower_bound"))
        self._wrap(m.coordination, "assemble_solution",
                   self._timed("coordination.assemble", foreign=True))

        self._wrap(m.model, "check_feasibility", self._timed("model.check", foreign=True))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _drop(self, what: str, metrics: list[str]) -> None:
        self.notices.append(f"{what} not found; dropped {', '.join(metrics)}")
        self.dropped.update(metrics)

    def _wrap(self, owner, name: str, make, drops: list[str] = ()) -> None:
        """Replace `owner.name`, and every solver-module binding of the same
        object (names imported with `from .x import name`), by make(original)."""
        original = getattr(owner, name, None)
        if original is None:
            if not name.startswith("_"):
                raise AttributeError(f"{owner.__name__}.{name} is missing")
            self._drop(f"{owner.__name__}.{name}", list(drops))
            return
        wrapper = make(original)
        owners = [owner] + [mod for mod in vars(self.mods).values()
                            if mod is not owner and getattr(mod, name, None) is original]
        for target in owners:
            self._patches.append((target, name, original))
            setattr(target, name, wrapper)

    def _wrap_table(self, name: str, op_names, drops: list[str], none_key) -> list[str]:
        table = getattr(self.mods.lns, name, None)
        op_metrics = [f"lns.op.{op}.{k}" for op in op_names for k in ("calls", "s")]
        if table is None:
            self._drop(f"lns.{name}", drops + op_metrics)
            return []
        missing = [op for op in op_names if op not in table]
        if missing:
            self._drop(f"operators {', '.join(missing)} in lns.{name}",
                       [f"lns.op.{op}.{k}" for op in missing for k in ("calls", "s")])
        wrapped = dict(table)
        for op in op_names:
            if op in table:
                wrapped[op] = self._timed(f"lns.op.{op}", none_key=none_key)(table[op])
        self._patches.append((self.mods.lns, name, table))
        setattr(self.mods.lns, name, wrapped)
        return [op for op in op_names if op in table]

    # -- wrapper factories ------------------------------------------------

    def _timed(self, key: str, foreign: bool = False, none_key: str | None = None,
               after=None):
        """Count and time calls. Time of the outermost `foreign` call (bdp,
        coordination and model layers) is also added to the total that
        lns.self_s subtracts from lns.run."""
        calls, secs = self.calls, self.secs

        def make(fn):
            def wrapper(*args, **kwargs):
                outermost = foreign and self._foreign_depth == 0
                if foreign:
                    self._foreign_depth += 1
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    if foreign:
                        self._foreign_depth -= 1
                    calls[key] += 1
                    secs[key] += elapsed
                    if outermost:
                        secs["foreign"] += elapsed
                if none_key is not None and result is None:
                    calls[none_key] += 1
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return wrapper
        return make

    def _counted(self, key: str, none_key: str | None = None):
        calls = self.calls

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[key] += 1
                if none_key is not None and result is None:
                    calls[none_key] += 1
                return result
            return wrapper
        return make

    def _leaf_counter(self):
        calls = self.calls

        def make(fn):
            def wrapper(duties, *args, **kwargs):
                calls["coordination.assign_leaves"] += 1
                if duties:
                    calls["coordination.duty_leaves"] += 1
                return fn(duties, *args, **kwargs)
            return wrapper
        return make

    # -- outcome classification (outside the timed region) ---------------

    def _classify(self, result, route, inst, *args, **kwargs) -> None:
        bdp = self.mods.bdp
        kind = result.classification
        if kind is bdp.RouteClass.TRIVIAL_NO_CHARGE:
            self.calls["bdp.trivial"] += 1
        if kind is bdp.RouteClass.INFEASIBLE:
            self.calls["bdp.infeasible"] += 1
        if result.fallback:
            self.calls["bdp.fallback"] += 1
            return
        swept = kind is bdp.RouteClass.ENUMERATED or (
            kind is bdp.RouteClass.INFEASIBLE
            and bdp.preprocess_route(route, inst) is bdp.RouteClass.NEEDS_BDP)
        if swept:
            self.calls["bdp.sweep"] += 1
            self.calls["bdp.sweep_cells"] += 1 << (len(route.nodes) - 1)
            self.calls["bdp.swept_patterns"] += len(result.patterns)

    def _exact_outcome(self, result, *args, **kwargs) -> None:
        if result is None:
            self.calls["coordination.none"] += 1
        elif not result.plan.certified:
            self.calls["coordination.uncertified"] += 1

    def _none_outcome(self, result, *args, **kwargs) -> None:
        if result is None:
            self.calls["coordination.none"] += 1

    # -- metrics ------------------------------------------------------------

    def run_seconds(self, traced_passes) -> float:
        """Time inside lns.run per traced pass: the base of the layer shares."""
        return self.secs["lns.run"] / len(traced_passes)

    def metrics(self, traced_passes, generator_s: float,
                overhead_ratio: float) -> dict[str, float]:
        """Per-pass layer metrics; counts repeat exactly from pass to pass."""
        c, s = self.calls, self.secs
        k = len(traced_passes)
        runs = [r for p in traced_passes for r in p.runs]
        rows = [row for p in traced_passes for row in p.rows]
        out = {
            "lns.iterations": sum(r.iterations for r in runs) / k,
            "lns.self_s": (s["lns.run"] - s["foreign"]) / k,
            "lns.initial_solution_s": s["lns.initial_solution"] / k,
            "lns.vehicles": fmean(row.e for row in rows),
        }
        for family, ops in (("destroy", self.destroy_ops), ("repair", self.repair_ops)):
            if ops:
                out[f"lns.{family}_s"] = sum(s[f"lns.op.{op}"] for op in ops) / k
            for op in ops:
                out[f"lns.op.{op}.calls"] = c[f"lns.op.{op}"] / k
                out[f"lns.op.{op}.s"] = s[f"lns.op.{op}"] / k
        if self.repair_ops:
            repairs = sum(c[f"lns.op.{op}"] for op in self.repair_ops)
            out["lns.repair_failed_ratio"] = _ratio(c["lns.repair.none"], repairs)
        out["lns.uncoordinated_ratio"] = _ratio(c["lns.coordinate_routes.none"],
                                                c["lns.coordinate_routes"])
        out["lns.memo_hit_ratio"] = 1.0 - _ratio(c["bdp.enumerate"], c["lns.patterns"])

        for key in ("bdp.enumerate", "coordination.exact", "coordination.heuristic",
                    "model.check"):
            out[f"{key}.calls"] = c[key] / k
            out[f"{key}.s"] = s[key] / k
        for key in ("bdp.trivial", "bdp.infeasible", "bdp.sweep", "bdp.fallback",
                    "coordination.none", "coordination.uncertified",
                    "coordination.lower_bound"):
            out[f"{key}.calls"] = c[key] / k
        out["bdp.sweep_cells"] = c["bdp.sweep_cells"] / k
        out["bdp.patterns_per_sweep"] = _ratio(c["bdp.swept_patterns"], c["bdp.sweep"])
        out["bdp.prune_supersets.s"] = s["bdp.prune_supersets"] / k
        out["coordination.assign_leaves"] = c["coordination.assign_leaves"] / k
        out["coordination.duty_leaves"] = c["coordination.duty_leaves"] / k
        out["coordination.assemble.s"] = s["coordination.assemble"] / k
        out["coordination.trucks"] = fmean(row.c for row in rows)
        out["coordination.certified_frac"] = fmean(r.certified for r in runs)

        out["harness.overhead_s"] = sum(p.wall - p.wrapper_s for p in traced_passes) / k
        out["generator.s"] = generator_s
        out["trace.overhead_ratio"] = overhead_ratio
        for name in self.dropped:
            out.pop(name, None)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
