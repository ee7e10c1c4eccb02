import argparse
import csv
import dataclasses
import json

import pytest

from wmcevrp import cli
from wmcevrp.generator import GenParams, generate_instance
from wmcevrp.model import FeasibilityReport, Instance, Violation

from conftest import build_instance


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert run_cli("gen", "--n", 5, "--seed", 4, "--out", path) == 0
    return path


class TestGen:
    def test_writes_loadable_instance(self, instance_file):
        inst = Instance.load(instance_file)
        assert inst.n == 5

    def test_overrides_forwarded(self, tmp_path):
        path = tmp_path / "i.json"
        run_cli("gen", "--n", 3, "--seed", 1, "--out", path,
                "--P", 640, "--rho-c", 5000)
        data = json.loads(path.read_text())
        assert data["P"] == 640.0
        assert data["rho_c"] == 5000.0

    # a value other than the default for every generator setting
    FLAG_VALUES = {"dist_low": 50.0, "dist_high": 900.0, "P": 640.0, "B": 18000.0,
                   "Q": 8.0, "rho_t": 1.5, "rho_e": 900.0, "rho_c": 1700.0,
                   "gamma": 2.5, "phi": 1.2, "max_mtev": 3, "max_mct": 2}

    @pytest.mark.parametrize("field", dataclasses.fields(GenParams), ids=lambda f: f.name)
    def test_each_setting_is_a_flag(self, tmp_path, field):
        value = self.FLAG_VALUES[field.name]
        path, expect = tmp_path / "cli.json", tmp_path / "api.json"
        assert run_cli("gen", "--n", 5, "--seed", 3, "--out", path,
                       "--" + field.name.replace("_", "-"), value) == 0
        generate_instance(5, 3, **{field.name: value}).save(expect)
        assert path.read_bytes() == expect.read_bytes()

    def test_flags_are_the_settings(self):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in subparsers.choices["gen"]._actions} - {"help"}
        assert dests == {f.name for f in dataclasses.fields(GenParams)} | {"n", "seed", "out"}


class TestSolve:
    def test_solves_and_writes_solution(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        log = tmp_path / "log.csv"
        code = run_cli("solve", "--instance", instance_file, "--seed", 1,
                       "--iters", 30, "--out", out, "--log", log)
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("E=")
        data = json.loads(out.read_text())
        assert data["total_cost"] > 0
        rows = list(csv.reader(log.read_text().splitlines()))
        assert rows[0][0] == "iteration"
        assert len(rows) == 31

    def test_byte_identical_reruns(self, instance_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("solve", "--instance", instance_file, "--seed", 9, "--iters", 40, "--out", a)
        run_cli("solve", "--instance", instance_file, "--seed", 9, "--iters", 40, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_exit_code(self, tmp_path):
        inst = build_instance([[0, 5], [0, 0]], [9], Q=5.0)
        path = tmp_path / "bad.json"
        inst.save(path)
        assert run_cli("solve", "--instance", path, "--iters", 5) == 2

    def test_no_vehicle_for_customers_is_infeasible(self, tmp_path, capsys):
        path = tmp_path / "nofleet.json"
        assert run_cli("gen", "--n", 3, "--seed", 1, "--P", 15000, "--max-mtev", 0,
                       "--out", path) == 0
        assert run_cli("solve", "--instance", path, "--iters", 5) == 2
        assert capsys.readouterr().err.startswith("infeasible: ")
        assert run_cli("oracle", "--instance", path) == 2

    @pytest.mark.filterwarnings("ignore:gamma <= rho_t")
    def test_customer_no_lone_route_reaches_is_no_proof(self, tmp_path, capsys):
        # no lone route [0, u, 3] serves either customer on battery, yet the
        # oracle serves both on [0, 2, 1, 3]: the distances are not metric
        path = tmp_path / "nonmetric.json"
        assert run_cli("gen", "--n", 2, "--seed", 64340, "--P", 900, "--Q", 4, "--gamma", 0.5,
                       "--max-mtev", 2, "--out", path) == 0
        assert run_cli("solve", "--instance", path, "--seed", 2) == 3
        assert run_cli("oracle", "--instance", path) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "E=1 C=1 cost=4573.98"

    def test_bench_prints_a_partial_row(self, tmp_path, capsys):
        # runs 0 and 3 of seed 2 run out of the two vehicles
        d = tmp_path / "one"
        d.mkdir()
        assert run_cli("gen", "--n", 6, "--seed", 99, "--max-mtev", 2,
                       "--out", d / "capped.json") == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 20}))
        assert run_cli("bench", "--dir", d, "--runs", 6, "--seed", 2, "--config", cfg,
                       "--out", tmp_path / "bench.csv") == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(
            " (partial: 2 of 6 runs found no solution)")

    def test_no_solution_exit_code(self, tmp_path):
        # the one customer needs in-motion charging but trucks are banned
        inst = build_instance([[0, 900], [0, 0]], [1], P=1000.0, max_mct=0)
        path = tmp_path / "stuck.json"
        inst.save(path)
        assert run_cli("solve", "--instance", path, "--iters", 5) == 3

    def test_fleet_cap_is_no_proof_of_infeasibility(self, tmp_path, capsys):
        # the oracle solves this instance with one vehicle; on seeds 2 and 3,
        # a construction that held its last vehicle to the charge-free gate
        # would run out of vehicles
        path = tmp_path / "cap3.json"
        assert run_cli("gen", "--n", 6, "--seed", 1, "--max-mtev", 3, "--out", path) == 0
        assert run_cli("oracle", "--instance", path) == 0
        for seed in range(8):
            assert run_cli("solve", "--instance", path, "--iters", 20, "--seed", seed) == 0

    def test_running_out_of_vehicles_exits_3(self, tmp_path, capsys):
        # the oracle serves this instance with both vehicles; the construction
        # from seed 2 runs out of them, which proves nothing: no solution found
        path = tmp_path / "cap2.json"
        assert run_cli("gen", "--n", 6, "--seed", 99, "--max-mtev", 2, "--out", path) == 0
        assert run_cli("oracle", "--instance", path) == 0
        capsys.readouterr()
        assert run_cli("solve", "--instance", path, "--iters", 20, "--seed", 2) == 3
        assert capsys.readouterr().err == "no feasible solution within budget\n"

    def test_best_solution_failing_the_checker_exits_3(self, instance_file, tmp_path,
                                                       capsys, monkeypatch):
        report = FeasibilityReport([Violation("sync", "mct:0", "late", 1.0)])
        checks = []

        def check(*args):
            checks.append(args)
            return report

        for owner in (cli, cli.lns):
            monkeypatch.setattr(owner, "check_feasibility", check)
        out, log = tmp_path / "s.json", tmp_path / "log.csv"
        assert run_cli("solve", "--instance", instance_file, "--iters", 5,
                       "--out", out, "--log", log) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("best solution fails the checker: 1 violation(s):")
        assert not out.exists() and not log.exists()
        assert len(checks) == 1, "the checker ran more than once for one solve"


class TestOracle:
    def test_matches_solve_on_small_instance(self, instance_file, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert run_cli("oracle", "--instance", instance_file, "--out", out,
                       "--certify") == 0
        printed = capsys.readouterr().out
        assert "optimal=True" in printed
        assert json.loads(out.read_text())["total_cost"] > 0

    def test_infeasible_instance(self, tmp_path):
        inst = build_instance([[0, 5], [0, 0]], [9], Q=5.0)
        path = tmp_path / "bad.json"
        inst.save(path)
        assert run_cli("oracle", "--instance", path) == 2


class TestCheck:
    def test_round_trip_solution_passes(self, instance_file, tmp_path):
        out = tmp_path / "sol.json"
        run_cli("solve", "--instance", instance_file, "--seed", 2, "--iters", 20,
                "--out", out)
        assert run_cli("check", "--instance", instance_file, "--solution", out) == 0

    def test_detects_tampering(self, instance_file, tmp_path):
        out = tmp_path / "sol.json"
        run_cli("solve", "--instance", instance_file, "--seed", 2, "--iters", 20,
                "--out", out)
        data = json.loads(out.read_text())
        data["mtev"][0]["nodes"].pop(1)            # drop a customer visit
        out.write_text(json.dumps(data))
        assert run_cli("check", "--instance", instance_file, "--solution", out) == 2

    def test_unknown_node_is_reported_not_raised(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        run_cli("solve", "--instance", instance_file, "--seed", 2, "--iters", 20,
                "--out", out)
        data = json.loads(out.read_text())
        n = Instance.load(instance_file).n
        data["mtev"][0]["nodes"].insert(1, n + 5)
        out.write_text(json.dumps(data))
        assert run_cli("check", "--instance", instance_file, "--solution", out) == 2
        assert "[flow] mtev:0 unknown node in route" in capsys.readouterr().out


class TestRejectedInput:
    @pytest.fixture
    def nan_instance(self, instance_file, tmp_path):
        data = json.loads(instance_file.read_text())
        data["P"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_nan_battery_exits_4_with_one_line(self, nan_instance, command, capsys):
        assert run_cli(command, "--instance", nan_instance) == cli.EXIT_BAD_INPUT == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("invalid input: ")
        assert "P must be finite" in err[0]

    def test_check_rejects_nan_instance(self, instance_file, nan_instance, tmp_path, capsys):
        out = tmp_path / "sol.json"
        run_cli("solve", "--instance", instance_file, "--seed", 2, "--iters", 5,
                "--out", out)
        capsys.readouterr()
        assert run_cli("check", "--instance", nan_instance, "--solution", out) == 4
        assert capsys.readouterr().err.startswith("invalid input: ")

    @pytest.mark.parametrize("field, value", [("n", "3"), ("P", "x"), ("demand", 5)])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_mistyped_instance_field_exits_4(self, instance_file, tmp_path, capsys,
                                             command, field, value):
        out = tmp_path / "sol.json"
        run_cli("solve", "--instance", instance_file, "--seed", 2, "--iters", 5,
                "--out", out)
        capsys.readouterr()
        data = json.loads(instance_file.read_text())
        data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        args = ["--solution", out] if command == "check" else []
        assert run_cli(command, "--instance", bad, *args) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid input: ")
        assert field in err[0]

    def test_unparsable_solution_exits_4(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        out.write_text("{not json")
        assert run_cli("check", "--instance", instance_file, "--solution", out) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("path, value", [
        ((), [1]),
        (("mtev",), [{}]),
        (("mct",), {}),
        (("mtev", 0, "nodes"), 7),
        (("mtev", 0, "edges", 0), None),
        (("mtev", 0, "arrival_times", 1), "a"),
        (("mtev", 0, "arrival_times", 1), None),
        (("mtev", 0, "arrival_times", 1), True),
        (("mct", 0, "battery", 0), float("nan")),
        (("total_cost",), None),
    ])
    def test_malformed_solution_exits_4(self, instance_file, tmp_path, capsys, path, value):
        out = tmp_path / "sol.json"
        run_cli("solve", "--instance", instance_file, "--seed", 2, "--iters", 5,
                "--out", out)
        capsys.readouterr()
        data = json.loads(out.read_text())
        if path:
            target = data
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            data = value
        out.write_text(json.dumps(data))
        assert run_cli("check", "--instance", instance_file, "--solution", out) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid input: ")

    def test_bench_rejects_a_nan_instance_in_its_directory(self, nan_instance, tmp_path):
        assert run_cli("bench", "--dir", nan_instance.parent, "--runs", 1,
                       "--out", tmp_path / "bench.csv") == 4

    def test_unknown_config_key_exits_4(self, instance_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_key": 1}))
        assert run_cli("solve", "--instance", instance_file, "--config", cfg) == 4

    def test_zero_weight_floor_exits_4(self, tmp_path, capsys):
        # zero scores with full reaction drive every operator weight to a
        # zero floor after one segment; roulette selection then divides 0 by 0
        inst = tmp_path / "inst.json"
        assert run_cli("gen", "--n", 6, "--seed", 3, "--out", inst) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reaction": 1.0, "weight_floor": 0.0, "segment_size": 1,
                                   "score_best": 0.0, "score_improve": 0.0,
                                   "score_accept_worse": 0.0}))
        capsys.readouterr()
        assert run_cli("solve", "--instance", inst, "--iters", 300, "--config", cfg) == 4
        self.assert_one_line_rejection(capsys)

    def test_negative_reaction_exits_4(self, tmp_path, capsys):
        # a negative reaction grows the operator weights geometrically until
        # roulette selection divides inf by inf
        inst = tmp_path / "inst.json"
        assert run_cli("gen", "--n", 6, "--seed", 3, "--out", inst) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reaction": -5.0, "segment_size": 1}))
        capsys.readouterr()
        assert run_cli("solve", "--instance", inst, "--iters", 3000, "--config", cfg) == 4
        self.assert_one_line_rejection(capsys)

    @staticmethod
    def assert_one_line_rejection(capsys):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid input: ")
        return err[0]

    @pytest.mark.parametrize("name, text", [
        ("ref.json", '{"a": "x"}'),
        ("ref.json", "{not json"),
        ("ref.json", "[6173]"),
        ("ref.json", '{"inst": -5}'),
        ("ref.json", '{"inst": null}'),
        ("ref.csv", "inst,NaN\n"),
        ("ref.csv", "inst\n"),
    ])
    def test_bad_reference_exits_4(self, instance_file, tmp_path, capsys, name, text):
        ref = tmp_path / "refs" / name
        ref.parent.mkdir()
        ref.write_text(text)
        assert run_cli("bench", "--dir", instance_file.parent, "--runs", 1,
                       "--ref", ref, "--out", tmp_path / "bench.csv") == 4
        self.assert_one_line_rejection(capsys)

    @pytest.mark.parametrize("values", ["800,400", "800,800", "400,x", "-1", "nan", "400,inf"])
    def test_bad_sweep_values_exit_4(self, instance_file, tmp_path, capsys, values):
        assert run_cli("sweep", "--param", "P", "--values", values, "--runs", 1,
                       "--dir", instance_file.parent, "--out", tmp_path / "sweep.csv") == 4
        self.assert_one_line_rejection(capsys)
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "oracle", "check", "bench"])
    def test_missing_file_exits_4(self, instance_file, tmp_path, capsys, command):
        missing = tmp_path / "missing.json"
        args = {
            "solve": ["--instance", missing],
            "oracle": ["--instance", missing],
            "check": ["--instance", missing, "--solution", missing],
            "bench": ["--dir", instance_file.parent, "--ref", missing,
                      "--out", tmp_path / "bench.csv"],
        }[command]
        assert run_cli(command, *args) == 4
        self.assert_one_line_rejection(capsys)

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    @pytest.mark.parametrize("kind, code", [("missing", 4), ("file", 4), ("empty", 3)])
    def test_instance_dir(self, instance_file, tmp_path, capsys, command, kind, code):
        path = {"missing": tmp_path / "nodir", "file": instance_file,
                "empty": tmp_path / "empty"}[kind]
        if kind == "empty":
            path.mkdir()
        sweep = ["--param", "P", "--values", "900"] if command == "sweep" else []
        assert run_cli(command, *sweep, "--dir", path, "--runs", 1,
                       "--out", tmp_path / "out.csv") == code
        if code == 4:
            err = capsys.readouterr().err.splitlines()
            reason = {"missing": "no such directory", "file": "not a directory"}[kind]
            assert err == [f"invalid input: {path}: {reason}"]
        assert not (tmp_path / "out.csv").exists()

    @pytest.fixture
    def no_run(self, monkeypatch):
        """Every command's work fails the test if it starts."""
        def ran(*args, **kwargs):
            raise AssertionError("the run started")
        for owner, name in ((cli, "generate_instance"), (cli.lns, "run"),
                            (cli.oracle, "solve_exact"), (cli.harness, "run_benchmark"),
                            (cli.harness, "run_sweep")):
            monkeypatch.setattr(owner, name, ran)

    @pytest.mark.parametrize("command", ["gen", "solve", "solve --log", "oracle", "bench",
                                         "sweep"])
    @pytest.mark.parametrize("target", ["nodir/out", "."])
    def test_unwritable_output_exits_4_before_the_run(self, instance_file, tmp_path, capsys,
                                                      no_run, command, target):
        bad = tmp_path / target
        good = tmp_path / "good.json"
        args = {
            "gen": ["gen", "--n", 3, "--out", bad],
            "solve": ["solve", "--instance", instance_file, "--out", bad],
            "solve --log": ["solve", "--instance", instance_file, "--out", good, "--log", bad],
            "oracle": ["oracle", "--instance", instance_file, "--out", bad],
            "bench": ["bench", "--dir", instance_file.parent, "--out", bad],
            "sweep": ["sweep", "--param", "P", "--values", "900", "--dir",
                      instance_file.parent, "--out", bad],
        }[command]
        assert run_cli(*args) == 4
        self.assert_one_line_rejection(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == [instance_file.name]

    @pytest.mark.parametrize("flag, value", [("--n", 0), ("--seed", -1), ("--P", "nan"),
                                             ("--Q", 0), ("--max-mct", -1)])
    def test_bad_gen_parameters_exit_4(self, tmp_path, capsys, flag, value):
        args = {"--n": 3, "--seed": 0, flag: value}
        assert run_cli("gen", *[x for kv in args.items() for x in kv],
                       "--out", tmp_path / "inst.json") == 4
        self.assert_one_line_rejection(capsys)
        assert not (tmp_path / "inst.json").exists()

    @pytest.mark.parametrize("config", [
        {"string_min": 0, "string_max": 0},
        {"string_min": 4, "string_max": 3},
        {"segment_size": 0},
        {"iterations": "x"},
        {"iterations": -3},
        {"time_limit": "1"},
        {"time_limit": -1.0},
        {"mct_transfer_depletes": "no"},
        [1],
        {"weight_floor": 0.0},
        {"weight_floor": -1.0},
        {"removal_min_frac": -0.1},
        {"removal_max_frac": 1.5},
        {"removal_min_frac": 0.4, "removal_max_frac": 0.2},
        {"init_temp_factor": -1.0},
        {"assign_node_budget": 0},
        {"heuristic_retries": -1},
        # integers beyond the float range: not a finite number, and a segment
        # size whose score cap is below the default scores
        {"cooling": 10**400},
        {"segment_size": 10**400},
        # removed setting: exact coordination is gated by lns_exact_combos
        {"exact_cap": 1000},
    ])
    def test_bad_config_exits_4(self, instance_file, tmp_path, capsys, no_run, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("solve", "--instance", instance_file, "--config", cfg) == 4
        reason = self.assert_one_line_rejection(capsys).split(f"{cfg}: ", 1)[1]
        # an oversized integer is named by its digit count, not quoted
        assert len(reason) < 100
        if isinstance(config, dict) and 10**400 in config.values():
            assert "an integer of 401 digits" in reason

    @pytest.mark.parametrize("args", [
        ["solve", "--iters", -3],
        ["solve", "--time-limit", "nan"],
        ["solve", "--seed", -1],
        ["oracle", "--max-customers", 2],
        ["bench", "--runs", 0],
        ["bench", "--jobs", 0],
        ["bench", "--jobs", -3],
        ["sweep", "--jobs", 0],
    ])
    def test_bad_run_flags_exit_4(self, instance_file, tmp_path, capsys, no_run, args):
        command, *flags = args
        where = {
            "bench": ["--dir", instance_file.parent, "--out", tmp_path / "bench.csv"],
            "sweep": ["--param", "P", "--values", "900", "--dir", instance_file.parent,
                      "--out", tmp_path / "sweep.csv"],
        }.get(command, ["--instance", instance_file])
        assert run_cli(command, *where, *flags) == 4
        self.assert_one_line_rejection(capsys)

    def test_failed_write_exits_4(self, instance_file, tmp_path, capsys, monkeypatch):
        def refuse(rows, path):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(cli.harness, "write_benchmark_csv", refuse)
        assert run_cli("bench", "--dir", instance_file.parent, "--runs", 1,
                       "--out", tmp_path / "bench.csv") == 4
        self.assert_one_line_rejection(capsys)


class TestCheckConfig:
    def test_transfer_depletion_setting_is_honoured(self, tmp_path):
        # one charged arc of 900 transfers 1800; a truck with B = 2000 covers
        # its 1800 of travel only when the transfer does not drain it
        inst = build_instance([[0, 900], [0, 0]], [1], P=1000.0, B=2000.0)
        path = tmp_path / "inst.json"
        inst.save(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mct_transfer_depletes": False}))
        out = tmp_path / "sol.json"
        assert run_cli("solve", "--instance", path, "--iters", 5, "--config", cfg,
                       "--out", out) == 0
        assert json.loads(out.read_text())["mct"]
        assert run_cli("check", "--instance", path, "--solution", out,
                       "--config", cfg) == 0
        assert run_cli("check", "--instance", path, "--solution", out) == 2


class TestBenchAndSweep:
    @pytest.fixture
    def instance_dir(self, tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        for k in range(2):
            run_cli("gen", "--n", 4, "--seed", 100 + k, "--out", d / f"i{k}.json")
        return d

    def test_bench_csv(self, instance_dir, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--dir", instance_dir, "--runs", 2,
                       "--out", out, "--seed", 1) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 3
        assert rows[1][0] == "i0" and rows[2][0] == "i1"

    def test_bench_with_reference(self, instance_dir, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"i0": 5000.0, "i1": 5000.0}))
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--dir", instance_dir, "--runs", 1,
                       "--ref", ref, "--out", out, "--seed", 1) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        gap = rows[0].index("gap_pct")
        assert all(r[gap] != "" for r in rows[1:])

    def test_sweep_csv(self, instance_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--param", "rho_c", "--values", "100,2000",
                       "--dir", instance_dir, "--out", out, "--runs", 1,
                       "--seed", 1) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 3

    def test_empty_dir_fails(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run_cli("bench", "--dir", empty, "--runs", 1,
                       "--out", tmp_path / "x.csv") == 3
