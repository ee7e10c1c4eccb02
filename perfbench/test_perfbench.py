"""Self-test of the benchmark at a tiny budget.

Runs every workload untraced and traced with two instances of three
iterations each, in a child process because set-up re-imports the solver
package, and checks that every metric named in BENCHMARK.json is emitted
with its unit, that outputs pass their checks, that tracing is neutral and
that traced runs evaluate their workload's expectations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {"instances": 2, "runs": 2, "iterations": 3, "trace_instances": 1}

CHILD = """
import json, sys
sys.path.insert(0, {here!r})
import run
run.use_checkout_sources()
end_to_end, per_layer = run.declared_metrics()
spec = run.load_spec()
for name, workload in spec["workloads"].items():
    workload.update({tiny!r})
    for trace in (False, True):
        expect = spec["expectations"][name] + spec["expectations"]["all"]
        record = run.run_workload(name, workload, spec["first_instance_seed"], seed=3,
                                  seconds=0, trace=trace, expect=expect)
        line = run.result_line(record, per_layer if trace else end_to_end)
        print(json.dumps({{"record": record, "line": line}}))
"""


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_runs():
    child = subprocess.run(
        [sys.executable, "-c", CHILD.format(here=str(HERE), tiny=TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    return [json.loads(line) for line in child.stdout.splitlines()]


def test_benchmark_json_names_the_spec_workloads(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    spec = run.load_spec()
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"])
    layer_names = {m["name"] for m in bench["per_layer"]}
    for feeds in spec["feeds"].values():
        for names in feeds.values():
            assert {n for n in names if "*" not in n} <= layer_names


def test_every_metric_is_emitted_with_its_unit(bench, tiny_runs):
    assert len(tiny_runs) == 2 * len(bench["workloads"])
    for out in tiny_runs:
        record, line = out["record"], out["line"]
        declared = bench["per_layer"] if record["trace"] else bench["end_to_end"]
        assert record["dropped"] == []
        assert list(line["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            entry = line["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))


def test_outputs_pass_their_checks(tiny_runs):
    for out in tiny_runs:
        line, record = out["line"], out["record"]
        assert record["problems"] == []
        assert line["correct"] is True
        assert line["failed"] == 0
        # an untraced run solves the first instances again to check determinism
        solved = TINY["trace_instances"] * 2 if record["trace"] else (
            TINY["instances"] + run.REPLAY_INSTANCES)
        assert line["attempted"] == solved * TINY["runs"]


def test_traced_runs_check_their_expectations(tiny_runs):
    spec = run.load_spec()
    for out in tiny_runs:
        record = out["record"]
        if record["trace"]:
            expect = spec["expectations"][record["workload"]] + spec["expectations"]["all"]
            assert len(record["expectations"]) == len(expect)
            assert set(record["layer_shares"]) == set(run.LAYER_TIMES)
        else:
            assert record["expectations"] == []


def test_check_expectations():
    shares = {"lns.self_s": 0.2, "lns.repair_s": 0.5, "bdp.enumerate.s": 0.3,
              "coordination.exact.s": 0.1, "model.check.s": 0.02}
    metrics = {"bdp.sweep.calls": 3.0}
    got = run.check_expectations(metrics, shares, [
        {"largest": "lns.repair_s"},
        {"largest": "coordination.exact.s"},
        {"largest": "bdp.enumerate.s", "outside": "lns."},
        {"zero": "bdp.sweep.calls"},
        {"below_share": "model.check.s", "share": 0.01},
    ])
    assert [(e["holds"], e["hard"]) for e in got] == [
        (True, False), (False, False), (True, False), (False, True), (False, False)]


def test_loose_battery_never_sweeps_or_charges(tiny_runs):
    traced = next(o["record"] for o in tiny_runs
                  if o["record"]["workload"] == "loose_battery" and o["record"]["trace"])
    assert traced["metrics"]["bdp.sweep.calls"] == 0
    assert traced["metrics"]["coordination.duty_leaves"] == 0
    assert traced["metrics"]["coordination.assign_leaves"] > 0


def test_fingerprint_depends_on_the_corpus_only(tiny_runs):
    prints = {}
    for out in tiny_runs:
        record = out["record"]
        prints.setdefault(record["workload"], set()).add(record["fingerprint"])
    assert all(len(p) == 1 for p in prints.values())
    assert len({next(iter(p)) for p in prints.values()}) == len(prints)


def test_compare_refuses_a_changed_corpus(tmp_path, tiny_runs):
    record = tiny_runs[0]["record"]
    (tmp_path / "before").mkdir()
    (tmp_path / "after").mkdir()
    (tmp_path / "before" / "r.json").write_text(json.dumps(record))
    (tmp_path / "after" / "r.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "before"), str(tmp_path / "after")]) == 0
    (tmp_path / "after" / "r.json").write_text(json.dumps(dict(record, seed=record["seed"] + 1)))
    assert compare.main([str(tmp_path / "before"), str(tmp_path / "after")]) == 0
    # refused also when the two sides ran different seeds
    changed = dict(record, seed=record["seed"] + 1, fingerprint="0" * 64)
    (tmp_path / "after" / "r.json").write_text(json.dumps(changed))
    assert compare.main([str(tmp_path / "before"), str(tmp_path / "after")]) == 2


def _solver_modules():
    run.use_checkout_sources()
    from wmcevrp import bdp, coordination, generator, harness, lns, model
    return SimpleNamespace(generator=generator, harness=harness, lns=lns, bdp=bdp,
                           coordination=coordination, model=model)


def test_missing_private_names_drop_their_metrics(monkeypatch):
    mods = _solver_modules()
    originals = (mods.lns.run, mods.lns._DESTROY_FUNCS, mods.model.check_feasibility)
    monkeypatch.delattr(mods.coordination, "_assign_exact")
    monkeypatch.delattr(mods.lns, "_coordinate_routes")
    monkeypatch.delattr(mods.lns, "_REPAIR_FUNCS")
    t = tracer.Tracer(mods)
    t.install()
    try:
        assert mods.lns.run is not originals[0]
        assert mods.lns.check_feasibility is mods.model.check_feasibility
    finally:
        t.uninstall()
    assert (mods.lns.run, mods.lns._DESTROY_FUNCS, mods.model.check_feasibility) == originals
    assert {"coordination.assign_leaves", "lns.uncoordinated_ratio", "lns.repair_s",
            "lns.op.charge_insertion.s"} <= t.dropped
    assert "lns.destroy_s" not in t.dropped
    assert len(t.notices) == 3


def test_missing_public_name_is_an_error(monkeypatch):
    mods = _solver_modules()
    monkeypatch.delattr(mods.bdp, "prune_supersets")
    t = tracer.Tracer(mods)
    with pytest.raises(AttributeError, match="prune_supersets"):
        t.install()
    t.uninstall()


def test_refuses_to_run_without_the_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
