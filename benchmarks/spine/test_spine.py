"""Tests of the benchmark spine itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/spine`` (tier-1
does not collect this directory). Everything runs at ``--smoke`` scale:
small data and a fixed number of script blocks, so counts repeat
exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.spine import compare, hostspeed, spec, workloads
from benchmarks.spine.trace import Tracer

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parents[1]
RUN = [sys.executable, str(SPINE / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SINGLE_THREADED = ("search_cold", "search_warm", "ingest_mixed")


def run_child(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("# detail "):])
    return result


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One whole smoke run: every workload untraced + traced."""
    out = tmp_path_factory.mktemp("spine") / "result.json"
    start = time.perf_counter()
    done = subprocess.run(
        RUN + ["--smoke", "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout, elapsed


def test_benchmark_json_matches_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.render_benchmark_json()
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])


def test_smoke_runs_everything_in_time(smoke):
    result, stdout, elapsed = smoke
    assert elapsed < 30, f"smoke run took {elapsed:.1f}s"
    assert list(result["workloads"]) == [w.name for w in spec.WORKLOADS]
    assert result["claim"] is None
    end_to_end = {m.name for m in spec.END_TO_END}
    per_layer = {m.name for m in spec.PER_LAYER}
    for name, workload in result["workloads"].items():
        emitted = set(workload["end_to_end"])
        assert emitted == end_to_end | set(spec.INGEST_BOUNDS) | {"failed_ratio"}
        assert set(workload["per_layer"]) == per_layer
        assert workload["end_to_end"]["failed_ratio"]["median"] == 0
        assert all(
            workload["end_to_end"][metric]["median"] > 0 for metric in end_to_end
        ), name
        # Every metric is printed by name with its unit.
        for metric in spec.END_TO_END:
            assert re.search(
                rf"{re.escape(metric.name)}\s+[\d.]+ {re.escape(metric.unit)}",
                stdout,
            )
    environment = result["environment"]
    for key in ("commit", "python", "nproc", "seed", "repeats", "clock",
                "load_1min_before", "load_1min_after", "noisy", "wal_flush"):
        assert key in environment


def test_bypass_predictions_hold(smoke):
    """The layers a workload is built to bypass read zero on it."""
    layers = {
        name: workload["per_layer"]
        for name, workload in smoke[0]["workloads"].items()
    }
    warm = layers["search_warm"]
    assert warm["core.cache.hit_ratio"] == 1.0
    assert warm["core.cache.put_many_ms"] == 0
    assert warm["core.augmentation.plan_cache_hit_ratio"] == 1.0
    assert warm["core.connectors.store_queries"] == 1.0
    for layer in spec.STORE_LAYERS:
        assert warm[f"{layer}.multi_get_ms"] == 0
        assert layers["search_cold"][f"{layer}.multi_get_ms"] > 0
    for name in ("search_cold", "search_warm"):
        assert layers[name]["network.executor.sleep_ms"] == 0
        assert layers[name]["core.aindex.refreezes"] == 0
        assert layers[name]["cdc.hub.pump_ms"] == 0
    assert layers["serve_closed"]["network.executor.sleep_ms"] > 0
    assert layers["ingest_mixed"]["core.aindex.refreezes"] > 0
    assert layers["ingest_mixed"]["cdc.materialize.hit_ratio"] > 0
    assert layers["search_cold"]["sharding.fetch_many_ms"] > 0
    assert layers["search_cold"]["planner.plan_ms"] > 0
    assert all("trace.overhead_ratio" in values for values in layers.values())


def test_single_threaded_op_self_times_add_up(smoke):
    shares = {
        name: workload["shares"]
        for name, workload in smoke[0]["workloads"].items()
    }
    for name in SINGLE_THREADED:
        assert smoke[0]["workloads"][name]["blocking_path_claimed"]
        for kind, by_layer in shares[name].items():
            assert sum(by_layer.values()) == pytest.approx(1.0, abs=0.01), (
                name, kind,
            )
    assert not smoke[0]["workloads"]["serve_closed"]["blocking_path_claimed"]


@pytest.mark.parametrize("workload", SINGLE_THREADED)
def test_same_seed_repeats_exactly_and_other_seed_differs(workload):
    first, second, other = (
        run_child(workload, seed, 0) for seed in (11, 11, 12)
    )
    for key in ("digest", "answers", "searches", "counters"):
        if key == "counters":
            # Byte and second totals depend on timing; counts do not.
            drop = {"serving.queue_wait_s"}
            a, b = ({k: v for k, v in run["detail"][key].items()
                     if k not in drop} for run in (first, second))
            assert a == b
        else:
            assert first["detail"][key] == second["detail"][key], key
    assert (
        first["metrics"]["virtual_ms_per_query"]
        == second["metrics"]["virtual_ms_per_query"]
    )
    assert first["attempted"] == second["attempted"]
    assert first["detail"]["digest"] != other["detail"]["digest"]


def test_wall_clock_values_are_stated_at_reference_host_speed():
    for workload in ("search_warm", "serve_closed"):
        run = run_child(workload, 11, 0)
        detail = run["detail"]
        factor = detail["host_factor"]["measured"]
        assert factor > 0 and factor != 1.0
        assert run["metrics"]["queries_per_s"]["value"] == pytest.approx(
            detail["searches"] / detail["measured_s"] * factor
        )


def test_host_factor_is_the_median_kernel_time_over_nominal():
    speed = hostspeed.HostSpeed()
    for __ in range(5):
        speed.sample()
    mark = speed.mark()
    speed.samples += [0.010, 0.030, 0.020]
    assert speed.factor(mark) == pytest.approx(0.020 / hostspeed.NOMINAL_S)
    assert speed.factor() > 0


def test_a_wrong_answer_counts_as_failed(tmp_path):
    workload = workloads.make("search_warm", workloads.SMOKE, 11, tmp_path)
    workload.setup()
    search = workload.quepa.augmented_search
    calls = {"count": 0}

    def sometimes_wrong(*args, **kwargs):
        answer = search(*args, **kwargs)
        calls["count"] += 1
        if calls["count"] == 3:
            answer.augmented.pop()
        return answer

    workload.quepa.augmented_search = sometimes_wrong
    part = workload.measure(workloads.Budget(1.0, 2), None)
    attempted, failed = workload.verify([part], None)
    assert attempted == 16
    # The damaged op disagrees with the other op of its query, so both
    # count: the run cannot tell which of them was right.
    assert failed == 2


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def inner():
        time.sleep(0.003)
        timed_leaf()

    def outer():
        time.sleep(0.001)
        timed_inner()
        timed_inner()

    timed_leaf = tracer._leaf_wrapper("layer.c", "leaf", leaf)
    timed_inner = tracer._span_wrapper("layer.b", "inner", inner)
    timed_outer = tracer._span_wrapper("layer.a", "outer", outer)
    with tracer.op(1, "query", "spine"):
        timed_outer()
    attribution = tracer.attribute(check_sum=True)
    assert attribution.violations == []
    assert attribution.ops == {"query": 1}
    totals = attribution.totals["query"]
    assert totals[("layer.c", "leaf")][1] == 2
    assert totals[("layer.b", "inner")][1] == 2
    assert totals[("layer.c", "leaf")][0] >= 0.004
    assert totals[("layer.b", "inner")][0] >= 0.006
    assert 0.001 <= totals[("layer.a", "outer")][0] < 0.006
    assert sum(entry[0] for entry in totals.values()) == pytest.approx(
        attribution.wall["query"], rel=1e-6
    )


def test_overlapping_spans_break_the_sum_invariant():
    """Two spans adopted by one op that ran at the same time count twice:
    exactly what ``check_sum`` exists to catch."""
    import threading

    tracer = Tracer()
    work = tracer._span_wrapper("layer.a", "work", lambda: time.sleep(0.01))
    with tracer.op(1, "query", "spine"):
        threads = [threading.Thread(target=work) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert tracer.attribute(check_sum=False).violations == []
    assert tracer.attribute(check_sum=True).violations


def test_compare_verdicts_and_digest_refusal(smoke, tmp_path, capsys):
    result = smoke[0]
    assert compare.compare(result, result) == 0
    slower = json.loads(json.dumps(result))
    entry = slower["workloads"]["search_warm"]["end_to_end"]["queries_per_s"]
    for key in entry:
        entry[key] *= 0.5
    assert compare.compare(result, slower) == 1
    assert "worse" in capsys.readouterr().out
    failing = json.loads(json.dumps(result))
    for key in ("median", "min", "max"):
        failing["workloads"]["search_cold"]["end_to_end"]["failed_ratio"][key] = 0.01
    assert compare.compare(result, failing) == 1
    other = json.loads(json.dumps(result))
    other["workloads"]["search_cold"]["digest"]["script"] = "different"
    with pytest.raises(SystemExit):
        compare.compare(result, other)
    assert compare.verdict(
        {"median": 10, "min": 8, "max": 12}, {"median": 10.5, "min": 9, "max": 13},
        "lower", 0.1,
    )[1] == "unresolved"
