"""Benchmark and sweep harness: repeated seeded runs, CSV emission, gap math.

Every run draws its RNG from a (seed, run_index) seed sequence so the
10-run protocol reproduces bit for bit on any platform.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lns
from .config import SolverConfig
from .model import Instance

BENCH_HEADER = ("instance", "status", "w_best", "w_avg", "e", "c", "runtime_s", "gap_pct",
                "status_reason")
SWEEP_HEADER = ("value", "w_best", "e", "c")
SWEEP_PARAMS = ("P", "rho_c")         # the `Instance` fields a sweep may vary


@dataclass
class BenchmarkRow:
    instance: str
    w_best: float = float("nan")
    w_avg: float = float("nan")
    e: int = 0
    c: int = 0
    runtime_s: float = 0.0
    gap_pct: float | None = None
    failed: bool = False
    status_reason: str = ""           # "<ExceptionType>: <text>" of a failed row


@dataclass
class SweepSpec:
    param: str                        # one of SWEEP_PARAMS
    values: list[float]
    instances: list[tuple[str, Instance]]
    runs: int = 10

    def validate(self) -> None:
        if self.param not in SWEEP_PARAMS:
            raise ValueError(f"sweep parameter must be {' or '.join(SWEEP_PARAMS)}, "
                             f"got {self.param}")
        if not all(math.isfinite(v) and v > 0 for v in self.values):
            raise ValueError("sweep values must be finite and positive")
        if list(self.values) != sorted(set(self.values)):
            raise ValueError("sweep values must be strictly increasing")


def run_seed(seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, run_index)))


def gap_percent(w_best: float, reference: float) -> float:
    return (w_best - reference) / reference * 100.0


def solve_once(inst: Instance, config: SolverConfig, seed: int, run_index: int) -> lns.RunResult:
    return lns.run(inst, config, rng=run_seed(seed, run_index))


def _bench_one(name: str, inst: Instance, runs: int, config: SolverConfig,
               seed: int, reference: dict | None) -> BenchmarkRow:
    started = time.perf_counter()
    try:
        results = [solve_once(inst, config, seed, r) for r in range(runs)]
        costs = [r.best_cost for r in results]
        if any(r.best is None or not r.feasible for r in results):
            raise RuntimeError("run produced no feasible solution")
        best_idx = int(np.argmin(costs))
        best = results[best_idx]
        row = BenchmarkRow(
            instance=name,
            w_best=float(min(costs)),
            w_avg=float(sum(costs) / len(costs)),
            e=best.mtev_used,
            c=best.mct_used,
            runtime_s=time.perf_counter() - started,
        )
        if reference and name in reference:
            row.gap_pct = gap_percent(row.w_best, float(reference[name]))
        return row
    except Exception as exc:
        return BenchmarkRow(instance=name, runtime_s=time.perf_counter() - started,
                            failed=True, status_reason=f"{type(exc).__name__}: {exc}")


def run_benchmark(instances: list[tuple[str, Instance]], runs: int = 10,
                  config: SolverConfig | None = None, seed: int = 0,
                  reference: dict | None = None, jobs: int = 1) -> list[BenchmarkRow]:
    """Per instance: `runs` independent seeded searches; best/average costs,
    fleet sizes of the best run, wall time, optional gap against a reference."""
    config = config or SolverConfig()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_bench_one, name, inst, runs, config, seed, reference)
                       for name, inst in instances]
            rows = [f.result() for f in futures]
    else:
        rows = [_bench_one(name, inst, runs, config, seed, reference)
                for name, inst in instances]
    rows.sort(key=lambda r: r.instance)
    return rows


def write_benchmark_csv(rows: list[BenchmarkRow], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(BENCH_HEADER)
        for r in rows:
            writer.writerow([
                r.instance,
                "failed" if r.failed else "ok",
                "" if r.failed else repr(r.w_best),
                "" if r.failed else repr(r.w_avg),
                "" if r.failed else r.e,
                "" if r.failed else r.c,
                repr(round(r.runtime_s, 3)),
                "" if r.gap_pct is None else f"{r.gap_pct:.4f}",
                r.status_reason,
            ])


def apply_param(inst: Instance, param: str, value: float) -> Instance:
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param}")
    return dataclasses.replace(inst, **{param: value})


def run_sweep(spec: SweepSpec, config: SolverConfig | None = None,
              seed: int = 0, jobs: int = 1) -> list[dict]:
    """One benchmark per parameter value over overridden copies of the base
    instances; emits per-value means of W_best, deployed MTEVs and MCTs."""
    spec.validate()
    config = config or SolverConfig()
    out = []
    for value in spec.values:
        overridden = [(name, apply_param(inst, spec.param, value))
                      for name, inst in spec.instances]
        rows = run_benchmark(overridden, runs=spec.runs, config=config,
                             seed=seed, jobs=jobs)
        good = [r for r in rows if not r.failed]
        if good:
            out.append({
                "value": value,
                "w_best": float(np.mean([r.w_best for r in good])),
                "e": float(np.mean([r.e for r in good])),
                "c": float(np.mean([r.c for r in good])),
            })
        else:
            out.append({"value": value, "w_best": float("nan"),
                        "e": float("nan"), "c": float("nan")})
    return out


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_HEADER)
        for r in rows:
            writer.writerow([repr(r["value"]), repr(r["w_best"]), repr(r["e"]), repr(r["c"])])


def _reference_cost(name: str, value, text: bool = False) -> float:
    """value as a cost. Only a CSV cell (text) is parsed from a string; a
    JSON cost must be a JSON number."""
    try:
        cost = float(value) if text or not isinstance(value, str) else math.nan
    except (TypeError, ValueError, OverflowError):
        cost = math.nan
    if isinstance(value, bool) or not (math.isfinite(cost) and cost > 0):
        raise ValueError(f"reference cost of {name} must be a finite positive number, "
                         f"got {value!r}")
    return cost


def load_reference(path) -> dict:
    """Reference upper bounds: JSON object or two-column CSV (name, value).
    The first CSV row is a header when its cost cell is not a number; every
    later row is data.

    Raises ValueError for any other layout and for a cost that is not a
    finite positive number.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("reference JSON must be an object mapping names to costs")
        return {str(k): _reference_cost(str(k), v) for k, v in data.items()}
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if rows and len(rows[0]) >= 2:
        try:
            float(rows[0][1])
        except ValueError:
            rows = rows[1:]     # a header: its cost cell names the column
    ref = {}
    for row in rows:
        if len(row) < 2:
            raise ValueError(f"reference CSV row {row} needs a name and a cost")
        ref[row[0]] = _reference_cost(row[0], row[1], text=True)
    return ref


def load_instances_dir(path) -> list[tuple[str, Instance]]:
    """(stem, instance) of every *.json file in path; OSError when path is
    missing or not a directory. An empty directory gives an empty list."""
    if not Path(path).exists():
        raise FileNotFoundError("no such directory")
    if not Path(path).is_dir():
        raise NotADirectoryError("not a directory")
    files = sorted(Path(path).glob("*.json"))
    return [(f.stem, Instance.load(f)) for f in files]
