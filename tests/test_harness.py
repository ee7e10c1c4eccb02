import csv
import json

import pytest

from wmcevrp import harness
from wmcevrp.config import SolverConfig
from wmcevrp.generator import generate_instance
from wmcevrp.harness import (
    BENCH_HEADER,
    SWEEP_HEADER,
    SweepSpec,
    apply_param,
    gap_percent,
    load_reference,
    run_benchmark,
    run_sweep,
    write_benchmark_csv,
    write_sweep_csv,
)

from conftest import build_instance

FAST = SolverConfig(iterations=25)


def tiny_instances(count=2, n=5):
    return [(f"inst{k}", generate_instance(n, seed=400 + k)) for k in range(count)]


class TestGap:
    def test_reference_formula(self):
        assert round(gap_percent(9224.0, 9259.0), 2) == -0.38

    def test_zero_gap(self):
        assert gap_percent(100.0, 100.0) == 0.0


class TestRunBenchmark:
    def test_single_run_best_equals_avg(self):
        rows = run_benchmark(tiny_instances(1), runs=1, config=FAST, seed=7)
        assert len(rows) == 1
        assert rows[0].w_best == rows[0].w_avg
        assert rows[0].e >= 1

    def test_runs_aggregate(self):
        rows = run_benchmark(tiny_instances(1), runs=4, config=FAST, seed=7)
        assert rows[0].w_avg >= rows[0].w_best

    def test_reference_gap_column(self):
        insts = tiny_instances(1)
        probe = run_benchmark(insts, runs=1, config=FAST, seed=7)
        ref = {insts[0][0]: probe[0].w_best}
        rows = run_benchmark(insts, runs=1, config=FAST, seed=7, reference=ref)
        assert rows[0].gap_pct == pytest.approx(0.0)

    def test_crashing_instance_marked_failed(self, tmp_path):
        bad = build_instance([[0, 5], [0, 0]], [9], Q=5.0)   # demand exceeds capacity
        rows = run_benchmark([("bad", bad)] + tiny_instances(1), runs=1,
                             config=FAST, seed=7)
        by_name = {r.instance: r for r in rows}
        assert by_name["bad"].failed
        assert not by_name["inst0"].failed
        reason = "InfeasibleInstanceError: customer 1 cannot be served even by a dedicated vehicle"
        assert by_name["bad"].status_reason == reason
        assert by_name["inst0"].status_reason == ""
        out = tmp_path / "bench.csv"
        write_benchmark_csv(rows, out)
        parsed = {row[0]: dict(zip(BENCH_HEADER, row))
                  for row in csv.reader(out.read_text().splitlines()[1:])}
        assert parsed["bad"]["status"] == "failed"
        assert parsed["bad"]["status_reason"] == reason
        assert parsed["inst0"]["status_reason"] == ""

    def test_deterministic(self):
        a = run_benchmark(tiny_instances(2), runs=2, config=FAST, seed=3)
        b = run_benchmark(tiny_instances(2), runs=2, config=FAST, seed=3)
        assert [(r.instance, r.w_best, r.w_avg, r.e, r.c) for r in a] == \
               [(r.instance, r.w_best, r.w_avg, r.e, r.c) for r in b]

    def test_worker_pool_matches_serial(self):
        serial = run_benchmark(tiny_instances(2), runs=1, config=FAST, seed=3)
        pooled = run_benchmark(tiny_instances(2), runs=1, config=FAST, seed=3, jobs=2)
        assert [(r.instance, r.w_best) for r in serial] == \
               [(r.instance, r.w_best) for r in pooled]

    def test_csv_schema(self, tmp_path):
        rows = run_benchmark(tiny_instances(1), runs=1, config=FAST, seed=1)
        out = tmp_path / "bench.csv"
        write_benchmark_csv(rows, out)
        parsed = list(csv.reader(out.read_text().splitlines()))
        assert tuple(parsed[0]) == BENCH_HEADER
        assert len(parsed) == 2
        assert parsed[1][1] == "ok"
        assert float(parsed[1][2]) == rows[0].w_best


class TestApplyParam:
    def test_battery_override_preserves_rest(self):
        inst = generate_instance(4, seed=0)
        out = apply_param(inst, "P", 640.0)
        assert out.P == 640.0 and inst.P != 640.0
        assert out.rho_c == inst.rho_c

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            apply_param(generate_instance(2, seed=0), "phi", 1.0)


class TestRunSweep:
    def test_degenerate_sweep_matches_benchmark(self):
        insts = tiny_instances(2)
        value = insts[0][1].P
        spec = SweepSpec(param="P", values=[value], instances=insts, runs=1)
        rows = run_sweep(spec, config=FAST, seed=11)
        bench = run_benchmark([(n, apply_param(i, "P", value)) for n, i in insts],
                              runs=1, config=FAST, seed=11)
        assert len(rows) == 1
        assert rows[0]["w_best"] == pytest.approx(
            sum(r.w_best for r in bench) / len(bench))

    def test_spec_validation(self):
        insts = tiny_instances(1)
        with pytest.raises(ValueError):
            SweepSpec(param="phi", values=[1.0], instances=insts).validate()
        with pytest.raises(ValueError):
            SweepSpec(param="P", values=[2.0, 1.0], instances=insts).validate()
        with pytest.raises(ValueError):
            SweepSpec(param="P", values=[-1.0], instances=insts).validate()

    def test_csv_schema(self, tmp_path):
        insts = tiny_instances(1)
        spec = SweepSpec(param="rho_c", values=[100.0, 200.0], instances=insts, runs=1)
        rows = run_sweep(spec, config=FAST, seed=2)
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, out)
        parsed = list(csv.reader(out.read_text().splitlines()))
        assert tuple(parsed[0]) == SWEEP_HEADER
        assert len(parsed) == 3
        assert [float(r[0]) for r in parsed[1:]] == [100.0, 200.0]


class TestLoadReference:
    def test_json_mapping(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps({"4A": 6173, "8C": 6708}))
        assert load_reference(path) == {"4A": 6173.0, "8C": 6708.0}

    @pytest.mark.parametrize("text, expect", [
        ("instance,ub\n4A,6173\n8C,6708\n", {"4A": 6173.0, "8C": 6708.0}),
        ("4A,6173\n8C,6708\n", {"4A": 6173.0, "8C": 6708.0}),
        ("instance,cost\ninstance,123.5\nname,99\nother,5\n",
         {"instance": 123.5, "name": 99.0, "other": 5.0}),
        ("Name,1\nNAME,2\n", {"Name": 1.0, "NAME": 2.0}),
    ], ids=["header", "no-header", "header-named-rows", "named-first-row"])
    def test_csv_mapping(self, tmp_path, text, expect):
        """Only the first row may be a header, and only when its cost cell
        is not a number: a later row named `instance` or `name` is data."""
        path = tmp_path / "ref.csv"
        path.write_text(text)
        assert load_reference(path) == expect

    @pytest.mark.parametrize("name, text", [
        ("ref.json", "[1, 2]"),
        ("ref.json", '{"4A": "x"}'),
        ("ref.json", '{"4A": "6173"}'),
        ("ref.json", '{"4A": true}'),
        ("ref.json", '{"4A": 0}'),
        ("ref.json", '{"4A": 1e400}'),
        ("ref.json", '{"4A": ' + "9" * 400 + "}"),
        ("ref.json", '{"4A": [6173]}'),
        ("ref.csv", "4A,6173\n8C\n"),
        ("ref.csv", "4A,-6173\n"),
        ("ref.csv", "4A,inf\n"),
        ("ref.csv", "4A,6173\nname,ub\n"),
    ], ids=["list", "text", "numeric-text", "bool", "zero", "float-overflow", "huge-int", "nested",
            "short-row", "negative", "inf", "late-header"])
    def test_rejects_bad_layout_or_cost(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError):
            load_reference(path)
