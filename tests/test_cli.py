import csv
import json

import pytest

from wmcevrp import cli
from wmcevrp.model import Instance

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

    def test_no_solution_exit_code(self, tmp_path):
        # the one customer needs in-motion charging but trucks are banned
        inst = build_instance([[0, 900], [0, 0]], [1], P=1000.0, max_mct=0)
        path = tmp_path / "stuck.json"
        inst.save(path)
        assert run_cli("solve", "--instance", path, "--iters", 5) == 3


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

    @staticmethod
    def assert_one_line_rejection(capsys):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid input: ")

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
