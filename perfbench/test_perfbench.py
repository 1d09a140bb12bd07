"""Tests of the benchmark itself: seeded inputs, metric names, the gate."""

import gc
import json
from pathlib import Path

import pytest

import inputs
import run

BENCHMARK = json.loads((Path(run.__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
TINY = {"corpus": 6, "wide": 20, "mixed": 3, "deep": 12}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_input_bytes(workload):
    size = TINY[workload]
    first = inputs.generate(workload, 5, size)
    assert inputs.generate(workload, 5, size) == first
    assert inputs.generate(workload, 6, size) != first


def test_corpus_alternates_escape_modes():
    modes = [mode for _, mode in inputs.generate("corpus", 1, 4)]
    assert modes == [inputs.ENTITY, inputs.SENTINEL] * 2


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(inputs, "SIZES", TINY)
    monkeypatch.setattr(inputs, "TRACE_SIZES", {w: max(1, n // 2) for w, n in TINY.items()})
    monkeypatch.setattr(run, "MIN_SAMPLE_S", 0.001)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    yield
    gc.unfreeze()


def result_of(capsys, workload, trace):
    run.run_one(workload, seed=3, seconds=0.05, trace=trace)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_every_check(tiny, capsys, workload):
    result = result_of(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]["ok_share"]["value"] == 1.0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["corpus", "mixed"])
def test_tiny_traced_run_prints_every_layer_metric(tiny, capsys, workload):
    result = result_of(capsys, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["encode.sibling.feeds_per_token"]["value"] >= 1


def test_benchmark_json_names_its_workloads_and_bounds():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
