#!/usr/bin/env python3
"""Solver benchmark over seeded corpora of generated instances.

    python3 perfbench/run.py --workload small_exact --seed 1 --seconds 30 --trace 0

One process runs one workload of perfbench/spec.json. It generates the
workload's pinned corpus, then solves it with
harness.run_benchmark(..., seed=--seed, jobs=1): a closed loop, one
lns.run at a time, each with a fixed iteration budget and no time limit,
drawing from the (seed, run_index) streams of the paper's protocol. Passes
over the corpus repeat while --seconds allows; there is always at least one.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
alternates untraced passes with passes under the per-layer wrappers of
tracer.py, checks that both give the same costs, and prints the per-layer
metrics. Every run's best solution is checked with
model.check_feasibility and model.evaluate_cost.

The time of one run is noisy on a shared machine: identical work takes up
to 50 % longer for tens of seconds at a time, in CPU time as in wall time.
Before every run and around every set-up the benchmark therefore takes the
CPU time of reference_work(), a fixed piece of work that no change to the
solver alters. iters_per_kref divides each run's CPU time by the median
reference time of the runs around it. setup_s is the median ratio of
set-up to reference CPU time over SETUP_REPEATS set-ups, in seconds at
nominal speed, where reference_work() takes NOMINAL_REF_S. Raw seconds are
printed and recorded too.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The corpus fingerprint, per-run costs and
failure texts go to .perfbench/<workload>-seed<seed>-trace<t>.json;
compare.py compares such records and refuses differing corpora.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median
from types import SimpleNamespace

from tracer import Tracer

# Every set-up compiles the solver from source, as a fresh checkout does,
# whatever PYTHONDONTWRITEBYTECODE says, and src/ gets no __pycache__.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"
SOLVER_MODULES = ("generator", "harness", "lns", "bdp", "coordination", "model")
SETUP_REPEATS = 21
REF_WINDOW = 8                # a run is scaled by the median reference time of runs j-8..j+8
REPLAY_INSTANCES = 1          # instances an untraced run solves again to check determinism
_REFERENCE_SOURCE = Path(dataclasses.__file__).read_text()
NOMINAL_REF_S = 0.010         # reference_work() CPU time on the 2-core machine the bounds were set on
# per-layer times whose share of the traced lns.run time a traced run reports;
# lns.destroy_s and lns.repair_s include the bdp and coordination calls they make
LAYER_TIMES = ("lns.self_s", "lns.initial_solution_s", "lns.destroy_s", "lns.repair_s",
               "bdp.enumerate.s", "bdp.prune_supersets.s", "coordination.exact.s",
               "coordination.heuristic.s", "coordination.assemble.s", "model.check.s",
               "harness.overhead_s")


@dataclass
class Run:
    instance: str
    run_index: int
    seconds: float = 0.0      # inside harness.solve_once, without the output check
    cpu_seconds: float = 0.0  # the same in CPU time
    ref_seconds: float = 0.0  # reference_work() CPU time just before the run
    iterations: int = 0
    cost: float = math.nan
    certified: bool = False
    error: str | None = None


@dataclass
class Pass:
    rows: list                # harness.BenchmarkRow per instance
    runs: list[Run]
    wall: float               # the run_benchmark call
    wrapper_s: float          # time inside the solve_once wrapper


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text())


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def use_checkout_sources() -> None:
    """Import the solver from this checkout's src/, never from an installed copy."""
    if not (SRC / "wmcevrp" / "__init__.py").is_file():
        raise FileNotFoundError(f"solver sources not found under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def reference_work() -> None:
    """Compile a fixed source file, the standard library's dataclasses.py:
    about 10 ms of CPU time.

    Solving the same corpus in eight processes, the spread of CPU time
    scaled by this reference was 0.03-0.04 of its median. Scaled by 2 ms of
    pure-Python loops shaped like the solver's, it was 0.06-0.09, and unscaled
    0.19-0.24. Set-up is about 40 % compiling, and its ratio to this
    reference varied by 4 % while the machine's speed drifted by 60 %.
    """
    compile(_REFERENCE_SOURCE, "<reference>", "exec")


def cpu_seconds(fn) -> float:
    start = time.process_time()
    fn()
    return time.process_time() - start


def setup(workload: dict, first_seed: int):
    """Import the solver modules afresh and generate the corpus.

    Returns (modules, corpus, set-up CPU seconds, set-up wall seconds,
    generation wall seconds).
    """
    for name in [k for k in sys.modules if k == "wmcevrp" or k.startswith("wmcevrp.")]:
        del sys.modules[name]
    gc.collect()              # every set-up starts from the same heap state
    cpu, start = time.process_time(), time.perf_counter()
    mods = SimpleNamespace(**{name: importlib.import_module(f"wmcevrp.{name}")
                              for name in SOLVER_MODULES})
    generated = time.perf_counter()
    corpus = [(f"i{i:03d}",
               mods.generator.generate_instance(workload["n"], first_seed + i,
                                                **workload["generator"]))
              for i in range(workload["instances"])]
    done, cpu_done = time.perf_counter(), time.process_time()
    if not Path(mods.model.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"wmcevrp was imported from {mods.model.__file__}, not {SRC}")
    return mods, corpus, cpu_done - cpu, done - start, done - generated


def fingerprint(corpus) -> tuple[str, dict[str, str]]:
    """SHA-256 of every instance's JSON (distances, demands, parameters) and of the corpus."""
    per = {name: hashlib.sha256(json.dumps(inst.to_json(), sort_keys=True).encode()).hexdigest()
           for name, inst in corpus}
    whole = hashlib.sha256("".join(per[name] for name, _ in corpus).encode()).hexdigest()
    return whole, per


class SolveRecorder:
    """Replaces harness.solve_once: times every run and checks its best solution.

    harness._bench_one turns any exception into a bare failed row, so the
    exception text is kept here. A failed check raises too, which makes the
    harness mark the instance failed.
    """

    def __init__(self, mods, corpus):
        self.harness = mods.harness
        self.original = mods.harness.solve_once
        self.check = mods.model.check_feasibility
        self.evaluate = mods.model.evaluate_cost
        self.names = {id(inst): name for name, inst in corpus}
        self.runs: list[Run] = []
        self.wrapper_s = 0.0

    def __enter__(self):
        self.harness.solve_once = self.solve_once
        return self

    def __exit__(self, *exc):
        self.harness.solve_once = self.original

    def solve_once(self, inst, config, seed, run_index):
        entered = time.perf_counter()
        run = Run(self.names[id(inst)], run_index)
        self.runs.append(run)
        run.ref_seconds = cpu_seconds(reference_work)
        try:
            start, cpu = time.perf_counter(), time.process_time()
            result = self.original(inst, config, seed, run_index)
            run.seconds = time.perf_counter() - start
            run.cpu_seconds = time.process_time() - cpu
            self._verify(run, result, inst, config)
        except Exception as exc:
            run.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self.wrapper_s += time.perf_counter() - entered
        return result

    def _verify(self, run: Run, result, inst, config) -> None:
        run.iterations = result.iterations
        run.cost = result.best_cost
        if result.best is None or not result.feasible:
            raise RuntimeError("run returned no feasible solution")
        report = self.check(result.best, inst, config.mct_transfer_depletes)
        if not report.passed:
            raise RuntimeError(f"best solution fails check_feasibility: {report}")
        cost = self.evaluate(result.best, inst)
        if not math.isclose(cost, result.best_cost, rel_tol=1e-12, abs_tol=1e-9):
            raise RuntimeError(f"evaluate_cost gives {cost!r}, run reported {result.best_cost!r}")
        run.certified = result.coordination is not None and result.coordination.plan.certified


def stream_seed(seed: int, index: int) -> int:
    """Harness seed of the index-th instance under --seed.

    Each instance gets its own seed so that runs of different instances
    draw independently: with one seed for the corpus, run r of every
    instance starts with the same first draw (initial_solution's battery
    gate), and the work per seed swings by a third.
    """
    return seed * 1000 + index


def run_pass(mods, corpus, workload: dict, seed: int, recorder: SolveRecorder) -> Pass:
    first, wrapped = len(recorder.runs), recorder.wrapper_s
    config = mods.harness.SolverConfig(iterations=workload["iterations"])
    rows = []
    start = time.perf_counter()
    for index, item in enumerate(corpus):
        rows += mods.harness.run_benchmark([item], runs=workload["runs"], config=config,
                                           seed=stream_seed(seed, index), jobs=1)
    wall = time.perf_counter() - start
    return Pass(rows, recorder.runs[first:], wall, recorder.wrapper_s - wrapped)


def repeat_passes(seconds: float, one_pass) -> list:
    """Call one_pass() at least once, and again while another fits in `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        spent = time.perf_counter() - start
        if spent * (len(results) + 1) / len(results) > seconds:
            return results


def pass_problems(p: Pass, runs: int) -> list[str]:
    """Failed runs, and harness rows that disagree with the runs behind them."""
    problems = [f"{r.instance} run {r.run_index}: {r.error}" for r in p.runs if r.error]
    costs: dict[str, list[float]] = {}
    for r in p.runs:
        if r.error is None:
            costs.setdefault(r.instance, []).append(r.cost)
    for row in p.rows:
        mine = costs.get(row.instance, [])
        if row.failed or len(mine) != runs:
            problems.append(f"{row.instance}: {len(mine)} of {runs} runs succeeded"
                            + (", harness marked it failed" if row.failed else ""))
        elif row.w_best != min(mine) or not math.isclose(row.w_avg, fmean(mine), rel_tol=1e-12):
            problems.append(f"{row.instance}: harness reports w_best={row.w_best!r} "
                            f"w_avg={row.w_avg!r}, its runs cost {mine!r}")
    return problems


def run_costs(p: Pass) -> dict[tuple[str, int], float]:
    return {(r.instance, r.run_index): r.cost for r in p.runs}


def solve_times(passes: list[Pass]) -> dict[str, float]:
    """Iteration rate and median run time, in seconds and in reference units.

    In reference units every run's CPU time is divided by the median
    reference_work() CPU time of the runs around it, which tracks the
    machine's speed at that moment. A ref is one reference_work() time, a
    kref 1000.
    """
    runs, scaled = [], []
    for p in passes:
        for j, r in enumerate(p.runs):
            if r.error is None:
                near = p.runs[max(0, j - REF_WINDOW):j + REF_WINDOW + 1]
                runs.append(r)
                scaled.append(r.cpu_seconds / median(q.ref_seconds for q in near))
    if not runs:
        return dict.fromkeys(("iters_per_s", "solve_s_p50", "iters_per_kref", "solve_ref_p50"), 0.0)
    iterations = sum(r.iterations for r in runs)
    return {
        "iters_per_s": iterations / sum(r.seconds for r in runs),
        "solve_s_p50": median(r.seconds for r in runs),
        "iters_per_kref": 1000.0 * iterations / sum(scaled),
        "solve_ref_p50": median(scaled),
    }


def end_to_end(passes: list[Pass], setup_s: float, ok_frac: float) -> dict[str, float]:
    rows = [row for row in passes[0].rows if not row.failed]
    times = solve_times(passes)
    return {
        "setup_s": setup_s,
        "iters_per_kref": times["iters_per_kref"],
        "w_best": fmean(row.w_best for row in rows) if rows else 0.0,
        "w_avg": fmean(row.w_avg for row in rows) if rows else 0.0,
        "ok_frac": ok_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, workload: dict, first_seed: int, seed: int, seconds: float,
                 trace: bool, expect: list[dict] = ()) -> dict:
    """Set up, measure and check one workload; returns the full record.

    `expect` holds the workload's expectations from spec.json, which a
    traced run checks (see check_expectations).
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        before = cpu_seconds(reference_work)
        mods, corpus, cpu_s, wall_s, generation_s = setup(workload, first_seed)
        reference = (before + cpu_seconds(reference_work)) / 2
        samples.append((cpu_s / reference, wall_s, generation_s))
    setup_ratio, wall_setup_s, generator_s = (median(column) for column in zip(*samples))
    setup_s = setup_ratio * NOMINAL_REF_S
    corpus_hash, instance_hashes = fingerprint(corpus)
    runs = workload["runs"]

    notices: list[str] = []
    with SolveRecorder(mods, corpus) as recorder:
        if not trace:
            passes = repeat_passes(seconds, lambda: run_pass(mods, corpus, workload, seed, recorder))
            # Solved again after the timed passes, so that every untraced run
            # checks determinism even when only one pass fits in --seconds.
            replays = [run_pass(mods, corpus[:REPLAY_INSTANCES], workload, seed, recorder)]
            plain, traced = passes, []
        else:
            subset = corpus[:workload["trace_instances"]]
            tracer = Tracer(mods)

            def pair():
                untraced = run_pass(mods, subset, workload, seed, recorder)
                tracer.install()
                try:
                    return untraced, run_pass(mods, subset, workload, seed, recorder)
                finally:
                    tracer.uninstall()

            pairs = repeat_passes(seconds, pair)
            plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
            replays = []
            notices = tracer.notices

    everything = plain + traced + replays
    problems = [text for p in everything for text in pass_problems(p, runs)]
    reference = run_costs(plain[0])
    for k, p in enumerate(plain[1:], start=2):
        if run_costs(p) != reference:
            problems.append(f"untraced pass {k} costs differ from pass 1: the solver is not deterministic")
    for p in replays:
        if any(reference.get(key) != cost for key, cost in run_costs(p).items()):
            problems.append("replayed runs cost differently from pass 1: the solver is not deterministic")
    for k, p in enumerate(traced, start=1):
        if run_costs(p) != reference:
            problems.append(f"traced pass {k} costs differ from the untraced pass: tracing is not neutral")

    expected = sum(len(p.rows) for p in everything) * runs
    succeeded = sum(r.error is None for p in everything for r in p.runs)
    shares, expectations = {}, []
    if trace:
        # scaled solve time of the traced passes over that of the untraced ones
        overhead = solve_times(plain)["iters_per_kref"] / solve_times(traced)["iters_per_kref"]
        metrics = tracer.metrics(traced, generator_s, overhead)
        dropped = tracer.dropped
        shares = {key: metrics[key] / tracer.run_seconds(traced)
                  for key in LAYER_TIMES if key in metrics}
        expectations = check_expectations(metrics, shares, list(expect))
        problems += [f"expectation failed: {e['expect']}" for e in expectations
                     if e["hard"] and not e["holds"]]
    else:
        metrics = end_to_end(plain, setup_s, succeeded / expected)
        dropped = set()
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": workload,
        "config": mods.harness.SolverConfig(iterations=workload["iterations"]).to_json(),
        "fingerprint": corpus_hash,
        "instances": instance_hashes,
        "passes": len(plain) + len(traced),
        "solve_samples": sum(r.error is None for p in plain for r in p.runs),
        "untraced_times": solve_times(plain),
        "wall_setup_s": wall_setup_s,
        "costs": [[r.instance, r.run_index, r.cost] for r in plain[0].runs],
        "timings": [[[r.iterations, r.seconds, r.cpu_seconds, r.ref_seconds] for r in p.runs]
                    for p in plain],
        "certified_frac": fmean(r.certified for p in plain for r in p.runs),
        "layer_shares": shares,
        "expectations": expectations,
        "problems": problems,
        "notices": notices,
        "dropped": sorted(dropped),
        "attempted": expected,
        "failed": expected - succeeded,
        "metrics": metrics,
    }


def check_expectations(metrics: dict[str, float], shares: dict[str, float],
                       expect: list[dict]) -> list[dict]:
    """Evaluate a workload's traced expectations from spec.json.

    {"zero": m} holds when count m is 0; it is hard, because it follows from
    how the workload's instances are generated, and a failure makes the run
    incorrect. {"largest": m} holds when m has the largest share among the
    LAYER_TIMES whose names do not start with "outside", if given, and
    {"below_share": m, "share": x} when m's share is below x. These depend on
    timing, and a change that speeds a layer up may rightly break them, so a
    failure is reported, not counted against the run.
    """
    results = []
    for e in expect:
        if "zero" in e:
            text, holds = f"{e['zero']} = 0", metrics[e["zero"]] == 0
        elif "largest" in e:
            outside = e.get("outside")
            pool = {k: v for k, v in shares.items() if not outside or not k.startswith(outside)}
            leader = max(pool, key=pool.get)
            text = (f"{e['largest']} has the largest share of solve time"
                    + (f" outside {outside}*" if outside else "") + f" (leader {leader})")
            holds = leader == e["largest"]
        else:
            text = f"{e['below_share']} is below {e['share']:.0%} of solve time"
            holds = shares[e["below_share"]] < e["share"]
        results.append({"expect": text, "holds": bool(holds), "hard": "zero" in e})
    return results


def result_line(record: dict, declared: dict[str, str]) -> dict:
    """The final stdout object; every declared metric not dropped must be present."""
    values = record["metrics"]
    unknown = sorted(set(values) - set(declared))
    missing = sorted(set(declared) - set(values) - set(record["dropped"]))
    if unknown or missing:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}; not produced: {missing}")
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items() if name in values},
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        use_checkout_sources()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = declared_metrics()
    declared = per_layer_units if args.trace else end_to_end_units

    record = run_workload(args.workload, spec["workloads"][args.workload],
                          spec["first_instance_seed"], args.seed, args.seconds, bool(args.trace),
                          spec["expectations"][args.workload] + spec["expectations"]["all"])
    line = result_line(record, declared)

    for text in record["notices"]:
        print(f"notice: {text}", file=sys.stderr)
    for text in record["problems"]:
        print(f"problem: {text}")
    print(f"workload {args.workload} seed {args.seed}: corpus {record['fingerprint'][:16]}, "
          f"{record['passes']} passes, {record['attempted']} runs attempted, "
          f"{record['failed']} failed")
    for name, entry in line["metrics"].items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    for key, share in record["layer_shares"].items():
        print(f"  share of lns.run time  {key:28s} {share:8.2%}")
    for e in record["expectations"]:
        print(f"  expectation {'holds' if e['holds'] else 'FAILS'}: {e['expect']}")
    times = record["untraced_times"]
    print(f"  untraced: {times['iters_per_s']:.6g} iterations/s; median run "
          f"{times['solve_s_p50']:.6g} s = {times['solve_ref_p50']:.6g} ref "
          f"over {record['solve_samples']} runs; set-up {record['wall_setup_s']:.6g} s wall")
    print(f"  certified_frac {record['certified_frac']:.4f} of run best solutions")
    RECORDS.mkdir(exist_ok=True)
    out = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
