"""Benchmark and sweep harness: repeated seeded runs, CSV emission, gap math.

Every run draws its RNG from a (seed, run_index) seed sequence so the
10-run protocol reproduces bit for bit on any platform, in this process or
over one process pool per benchmark or sweep.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
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
    runtime_s: float = 0.0            # summed over the instance's runs
    gap_pct: float | None = None
    status: str = "ok"                # "partial": some runs found no solution; or "failed"
    status_reason: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "failed"


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


def _run(task: tuple) -> tuple:
    """(cost, MTEVs, MCTs, solved, exception text, seconds) of a `solve_once` task."""
    started = time.perf_counter()
    try:
        res = solve_once(*task)
        out = (float(res.best_cost), res.mtev_used, res.mct_used, res.feasible, "")
    except Exception as exc:
        out = (math.inf, 0, 0, False, f"{type(exc).__name__}: {exc}")
    return out + (time.perf_counter() - started,)


def _run_all(instances: list[Instance], runs, config, seed, jobs) -> list[list[tuple]]:
    """Per instance, the records of its runs in run order: run here, through
    the module-global `solve_once`, or over one pool of up to `jobs` workers."""
    tasks = [(inst, config, seed, r) for inst in instances for r in range(runs)]
    if min(jobs, len(tasks)) > 1:
        from concurrent.futures import ProcessPoolExecutor     # loaded only when used
        with ProcessPoolExecutor(min(jobs, len(tasks))) as pool:
            records = list(pool.map(_run, tasks))
    else:
        records = list(map(_run, tasks))
    return [records[i:i + runs] for i in range(0, len(records), runs)]


def _row(name: str, records: list[tuple], reference: dict | None = None) -> BenchmarkRow:
    """Failed when a run raised (its text the reason) or none solved the instance;
    else from the solved runs, and partial when some run found no solution."""
    row = BenchmarkRow(name, runtime_s=sum(rec[5] for rec in records))
    errors = [rec[4] for rec in records if rec[4]]
    solved = [rec for rec in records if rec[3]]
    if errors or not solved:
        row.status = "failed"
        row.status_reason = errors[0] if errors else "no run found a feasible solution"
        return row
    row.w_best, row.e, row.c = min(solved, key=lambda rec: rec[0])[:3]     # the first best
    row.w_avg = sum(rec[0] for rec in solved) / len(solved)
    if len(solved) < len(records):
        row.status = "partial"
        row.status_reason = f"{len(records) - len(solved)} of {len(records)} runs found no solution"
    if reference and name in reference:
        row.gap_pct = gap_percent(row.w_best, float(reference[name]))
    return row


def run_benchmark(instances: list[tuple[str, Instance]], runs: int = 10,
                  config: SolverConfig | None = None, seed: int = 0,
                  reference: dict | None = None, jobs: int = 1) -> list[BenchmarkRow]:
    """Per instance: `runs` independent seeded searches; best/average costs,
    fleet sizes of the best run, summed run time, optional gap against a
    reference."""
    records = _run_all([inst for _, inst in instances], runs, config or SolverConfig(), seed, jobs)
    rows = [_row(name, recs, reference) for (name, _), recs in zip(instances, records)]
    return sorted(rows, key=lambda r: r.instance)


def write_benchmark_csv(rows: list[BenchmarkRow], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(BENCH_HEADER)
        for r in rows:
            numbers = ("",) * 4 if r.failed else (repr(r.w_best), repr(r.w_avg), r.e, r.c)
            writer.writerow([r.instance, r.status, *numbers, repr(round(r.runtime_s, 3)),
                             "" if r.gap_pct is None else f"{r.gap_pct:.4f}", r.status_reason])


def apply_param(inst: Instance, param: str, value: float) -> Instance:
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param}")
    return dataclasses.replace(inst, **{param: value})


def run_sweep(spec: SweepSpec, config: SolverConfig | None = None,
              seed: int = 0, jobs: int = 1) -> list[dict]:
    """One benchmark per parameter value over overridden copies of the base
    instances; emits per-value means of W_best, deployed MTEVs and MCTs over
    the instances not failed (NaN when every one failed)."""
    spec.validate()
    records = _run_all([apply_param(inst, spec.param, value) for value in spec.values
                        for _, inst in spec.instances], spec.runs,
                       config or SolverConfig(), seed, jobs)
    out, k = [], len(spec.instances)
    for j, value in enumerate(spec.values):
        rows = [_row(name, recs) for (name, _), recs in zip(spec.instances, records[j * k:])]
        good = sorted((r for r in rows if not r.failed), key=lambda r: r.instance)
        out.append(dict(zip(SWEEP_HEADER, [value] + [
            float(np.mean([getattr(r, f) for r in good])) if good else float("nan")
            for f in SWEEP_HEADER[1:]])))
    return out


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_HEADER)
        for r in rows:
            writer.writerow([repr(r[key]) for key in SWEEP_HEADER])


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
