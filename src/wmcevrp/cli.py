"""Command-line front end: gen / solve / oracle / bench / sweep / check.

Exit codes: 0 success, 2 provably infeasible input (a demand above Q, or
customers and no vehicle; for `oracle`, no solution at all; for `check`, a
solution that fails the checker), 3 budget exhausted without a feasible
solution (for `solve`, also a best solution that fails the checker), 4
rejected input: a missing or unreadable file, an instance, solution,
config or reference file that cannot be parsed or fails validation (for
a config: a setting `SolverConfig` rejects), a missing `--dir`, an output
path (`--out`, `solve --log`) in a missing directory or that names a
directory, a bad `sweep --values` list, `gen` parameters that
generation or instance validation refuses, a negative `--seed`, `--runs` or
`--jobs` < 1, `solve --iters` or `--time-limit` out of the config's range,
or an `oracle` instance above `--max-customers`, reported as one
`invalid input:` line on stderr.
Flags and output paths are checked before any run starts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import coordination, harness, lns, oracle
from .config import SolverConfig
from .generator import GenParams, generate_instance
from .model import InfeasibleInstanceError, Instance, Solution, check_feasibility

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NO_SOLUTION = 3
EXIT_BAD_INPUT = 4


class InputError(Exception):
    """An input file that cannot be parsed or fails validation."""


def _load(loader, path):
    """loader(path), with the ValueError of a malformed file or the OSError
    of an unreadable one raised as InputError."""
    try:
        return loader(path)
    except (ValueError, OSError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _check_flags(args) -> None:
    """Refuse a negative --seed or a --runs or --jobs below 1, before any
    work is done."""
    for flag, low in (("seed", 0), ("runs", 1), ("jobs", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise InputError(f"--{flag} must be at least {low}, got {value}")


def _check_outputs(*paths) -> None:
    """Refuse output paths that cannot be written, before any work is done."""
    for path in filter(None, paths):
        if Path(path).is_dir():
            raise InputError(f"{path}: is a directory")
        if not Path(path).parent.is_dir():
            raise InputError(f"{path}: no such directory {Path(path).parent}")


@contextmanager
def _writing(path):
    """Raise the OSError of a failed write to path as InputError."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_solution(path) -> Solution:
    return Solution.from_json(json.loads(Path(path).read_text()))


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    for f in dataclasses.fields(GenParams):      # f.type is the annotation's text
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       type=int if f.type.startswith("int") else float)


def _load_config(path, **flags) -> SolverConfig:
    """The config file (or the defaults) with every flag that was given,
    validated as one config."""
    cfg = _load(SolverConfig.load, path) if path else SolverConfig()
    try:
        return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_gen(args) -> int:
    try:
        inst = generate_instance(args.n, args.seed, **{
            f.name: getattr(args, f.name) for f in dataclasses.fields(GenParams)
            if getattr(args, f.name) is not None})
    except ValueError as exc:
        raise InputError(f"gen parameters: {exc}") from exc
    with _writing(args.out):
        inst.save(args.out)
    print(f"wrote {args.out} (n={args.n}, seed={args.seed})")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load(Instance.load, args.instance)
    cfg = _load_config(args.config, iterations=args.iters, time_limit=args.time_limit)
    try:
        result = lns.run(inst, cfg, rng=harness.run_seed(args.seed, 0))
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if result.best is None:
        print("no feasible solution within budget", file=sys.stderr)
        return EXIT_NO_SOLUTION
    if not result.feasible:
        print(f"best solution fails the checker: {result.report}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(result.best.to_json_str())
    if args.log:
        with _writing(args.log), open(args.log, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(("iteration", "destroy_op", "repair_op",
                             "incumbent_cost", "best_cost", "temperature"))
            writer.writerows(result.log)
    print(coordination.summary_line(result.mtev_used, result.mct_used, result.best_cost))
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = _load(Instance.load, args.instance)
    if inst.n > args.max_customers:
        raise InputError(f"{args.instance}: {inst.n} customers, "
                         f"--max-customers is {args.max_customers}")
    res = oracle.solve_exact(inst, max_customers=args.max_customers)
    if args.certify:
        print(json.dumps(res.counts, sort_keys=True))
        print(f"optimal={res.optimal}")
    if not res.feasible:
        print("instance is infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(res.solution.to_json_str())
    print(coordination.summary_line(res.mtev_used, res.mct_used, res.cost))
    return EXIT_OK


def cmd_bench(args) -> int:
    instances = _load(harness.load_instances_dir, args.dir)
    if not instances:
        print(f"no instances in {args.dir}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    reference = _load(harness.load_reference, args.ref) if args.ref else None
    rows = harness.run_benchmark(instances, runs=args.runs,
                                 config=_load_config(args.config),
                                 seed=args.seed, reference=reference,
                                 jobs=args.jobs)
    with _writing(args.out):
        harness.write_benchmark_csv(rows, args.out)
    for row in rows:
        if row.failed:
            status = f"FAILED ({row.status_reason})"
        else:
            status = f"W_best={row.w_best:.2f} W_avg={row.w_avg:.2f} E={row.e} C={row.c}"
            if row.status_reason:
                status += f" ({row.status}: {row.status_reason})"
        print(f"{row.instance}: {status}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        spec = harness.SweepSpec(param=args.param,
                                 values=[float(v) for v in args.values.split(",")],
                                 instances=[], runs=args.runs)
        spec.validate()
    except ValueError as exc:
        raise InputError(f"--values {args.values}: {exc}") from exc
    spec.instances = _load(harness.load_instances_dir, args.dir)
    if not spec.instances:
        print(f"no instances in {args.dir}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    rows = harness.run_sweep(spec, config=_load_config(args.config),
                             seed=args.seed, jobs=args.jobs)
    with _writing(args.out):
        harness.write_sweep_csv(rows, args.out)
    for row in rows:
        print(f"{args.param}={row['value']}: W_best={row['w_best']:.2f} "
              f"E={row['e']:.2f} C={row['c']:.2f}")
    return EXIT_OK


def cmd_check(args) -> int:
    inst = _load(Instance.load, args.instance)
    sol = _load(_read_solution, args.solution)
    cfg = _load_config(args.config)
    report = check_feasibility(sol, inst, cfg.mct_transfer_depletes)
    print(report)
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wmcevrp")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_gen(sub)

    p = sub.add_parser("solve", help="run the hybrid search on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--log", default=None)

    p = sub.add_parser("oracle", help="exhaustive solve of a tiny instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--certify", action="store_true",
                   help="print enumeration counts and the optimality flag")
    p.add_argument("--max-customers", type=int, default=6)

    p = sub.add_parser("bench", help="10-run benchmark over a directory of instances")
    p.add_argument("--dir", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--ref", default=None, help="reference costs for the gap column")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("sweep", help="parameter sweep over P or rho_c")
    p.add_argument("--param", choices=harness.SWEEP_PARAMS, required=True)
    p.add_argument("--values", required=True, help="comma-separated increasing values")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("check", help="feasibility-check a solution file")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--config", default=None,
                   help="solver config; its mct_transfer_depletes applies")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "oracle": cmd_oracle,
        "bench": cmd_bench,
        "sweep": cmd_sweep,
        "check": cmd_check,
    }
    try:
        _check_flags(args)
        _check_outputs(getattr(args, "out", None), getattr(args, "log", None))
        return handlers[args.command](args)
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
