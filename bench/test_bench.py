"""Tests of the benchmark itself: models, gate and tracer.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json

import pytest

import gate
import models
import pipeline
import run
import tracing
from guiseq import graphs, simulator
from guiseq.appmodel import app_model_to_json, load_app_model

WORKLOADS = models.load_workloads()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 4242])
def test_model_json_round_trips(workload, seed, tmp_path):
    text = models.dump(app_model_to_json(models.build_model(workload, seed)))
    path = tmp_path / "app.json"
    path.write_text(text, encoding="utf-8")
    assert models.dump(app_model_to_json(load_app_model(path))) == text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_picks_the_model(workload):
    def dumped(seed):
        return models.dump(app_model_to_json(models.build_model(workload, seed)))

    assert dumped(3) == dumped(3)
    assert dumped(3) != dumped(4)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced_twice(request, tmp_path_factory):
    """Two traced pipelines on the workload's default seed."""
    name = request.param
    spec = WORKLOADS[name]
    work = tmp_path_factory.mktemp(name)
    app, ir = models.write_inputs(name, spec["default_seed"], work / "inputs")
    runs = []
    for k in range(2):
        out = work / f"run{k}"
        with tracing.Tracer() as tracer:
            run = pipeline.run_pipeline(app, ir, spec["config"], out, tracer.set_stage)
        assert run.errors == []
        runs.append((out, tracer.metrics(run.seconds), run.seconds))
    return name, spec, runs


def test_default_seed_matches_reference_and_shows_behaviours(traced_twice):
    name, spec, runs = traced_twice
    out = runs[0][0]
    hashes = pipeline.artifact_hashes(out)
    assert gate.check_reference(name, spec["default_seed"], hashes) == []
    assert gate.check_same("second run", hashes, pipeline.artifact_hashes(runs[1][0])) == []
    assert gate.check_executable(out) == []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert gate.check_behaviours(report, spec["expects"]) == []


def test_trace_counts_repeat_exactly(traced_twice):
    _name, _spec, runs = traced_twice
    (_, first, _), (_, second, _) = runs
    counts = [n for n, (_u, _b, kind) in tracing.METRICS.items() if kind == "count"]
    assert counts and all(n in first for n in counts)
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_trace_shows_the_predicted_splits(traced_twice):
    name, _spec, runs = traced_twice
    _, layer, _seconds = runs[0]
    if name == "rip-wizard":
        assert layer["graphs.shortest_path.distinct_ratio"] == 1.0
        # Both runs together: one stage of one run can take 40% longer on a busy machine.
        stages = {s: sum(seconds[s] for _, _, seconds in runs) for s in pipeline.STAGES}
        assert stages["rip"] == max(stages.values())
    else:
        assert layer["graphs.shortest_path.distinct_ratio"] < 0.1
        assert layer["graphs.shortest_path.gen_share"] > 0.5


def test_tracer_restores_every_binding():
    originals = (graphs.shortest_path, simulator.fire_event, pipeline.guiseq.available_events)
    with tracing.Tracer():
        assert graphs.shortest_path is not originals[0]
        assert pipeline.guiseq.available_events is not originals[2]
    assert (graphs.shortest_path, simulator.fire_event, pipeline.guiseq.available_events) == originals


def test_bundled_models_reproduce_their_bugs():
    assert gate.check_corpus() == []


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        n: (unit, better) for n, (unit, better, _kind) in tracing.METRICS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
