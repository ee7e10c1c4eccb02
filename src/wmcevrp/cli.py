"""Command-line front end: gen / solve / oracle / bench / sweep / check.

Exit codes: 0 success, 2 provably infeasible input (or, for `check`, a
solution that fails the checker), 3 budget exhausted without a feasible
solution, 4 rejected input: a missing or unreadable file, an instance,
solution, config or reference file that cannot be parsed or fails
validation, or a bad `sweep --values` list, reported as one
`invalid input:` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
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


def _read_solution(path) -> Solution:
    return Solution.from_json(json.loads(Path(path).read_text()))


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--dist-low", type=float, default=None)
    p.add_argument("--dist-high", type=float, default=None)
    p.add_argument("--P", type=float, default=None)
    p.add_argument("--B", type=float, default=None)
    p.add_argument("--Q", type=float, default=None)
    p.add_argument("--rho-t", type=float, default=None)
    p.add_argument("--rho-e", type=float, default=None)
    p.add_argument("--rho-c", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--max-mtev", type=int, default=None)
    p.add_argument("--max-mct", type=int, default=None)


def _gen_params(args) -> GenParams:
    params = GenParams()
    mapping = {
        "dist_low": args.dist_low, "dist_high": args.dist_high,
        "P": args.P, "B": args.B, "Q": args.Q,
        "rho_t": args.rho_t, "rho_e": args.rho_e, "rho_c": args.rho_c,
        "gamma": args.gamma, "phi": args.phi,
        "max_mtev": args.max_mtev, "max_mct": args.max_mct,
    }
    overrides = {k: v for k, v in mapping.items() if v is not None}
    import dataclasses
    return dataclasses.replace(params, **overrides)


def _load_config(path) -> SolverConfig:
    return _load(SolverConfig.load, path) if path else SolverConfig()


def cmd_gen(args) -> int:
    inst = generate_instance(args.n, args.seed, _gen_params(args))
    inst.save(args.out)
    print(f"wrote {args.out} (n={args.n}, seed={args.seed})")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load(Instance.load, args.instance)
    cfg = _load_config(args.config)
    if args.iters is not None:
        cfg.iterations = args.iters
    if args.time_limit is not None:
        cfg.time_limit = args.time_limit
    try:
        result = lns.run(inst, cfg, rng=harness.run_seed(args.seed, 0))
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if result.best is None:
        print("no feasible solution within budget", file=sys.stderr)
        return EXIT_NO_SOLUTION
    if args.out:
        Path(args.out).write_text(result.best.to_json_str())
    if args.log:
        with open(args.log, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(("iteration", "destroy_op", "repair_op",
                             "incumbent_cost", "best_cost", "temperature"))
            writer.writerows(result.log)
    print(coordination.summary_line(result.mtev_used, result.mct_used, result.best_cost))
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = _load(Instance.load, args.instance)
    res = oracle.solve_exact(inst, max_customers=args.max_customers)
    if args.certify:
        print(json.dumps(res.counts, sort_keys=True))
        print(f"optimal={res.optimal}")
    if not res.feasible:
        print("instance is infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.out:
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
    harness.write_benchmark_csv(rows, args.out)
    for row in rows:
        if row.failed:
            status = f"FAILED ({row.status_reason})"
        else:
            status = f"W_best={row.w_best:.2f} W_avg={row.w_avg:.2f} E={row.e} C={row.c}"
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
    p.add_argument("--param", choices=("P", "rho_c"), required=True)
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
        return handlers[args.command](args)
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
