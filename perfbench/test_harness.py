"""Tests of the benchmark harness itself (not of the program under test).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from spans import SpanRecorder, wrapper_cost_s  # noqa: E402
from workloads import (  # noqa: E402
    SERVE_DIMS, SERVE_PATTERNS, SUITE_ENUM, SUITE_SEARCH, SUITES, request_stream,
)

# -- the percentile rule ------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert reference.percentile(range(19), 0.5) is None
    assert reference.percentile(range(20), 0.5) == 9
    assert reference.percentile(range(99), 0.9) is None
    assert reference.percentile(range(100), 0.9) == 89


def test_tail_stat_falls_back_to_the_mean():
    assert reference.tail_stat([1.0, 2.0, 6.0], 0.5) == (3.0, "mean")
    assert reference.tail_stat(list(range(200)), 0.9) == (179, "p90")


def test_geomean():
    assert reference.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert reference.geomean([]) == 1.0


# -- span self-time arithmetic ---------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children_and_adds_up():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.enter("dfs")          # t=0
    clock.now = 1.0
    rec.enter("solve_all")    # t=1
    clock.now = 4.0
    rec.exit()                # solve_all: 3
    rec.enter("dfs")          # recursion, t=4
    clock.now = 6.0
    rec.exit()                # inner dfs: 2
    clock.now = 10.0
    rec.exit()                # outer dfs: 10, self 10 - 3 - 2 = 5
    rec.enter("parse")
    clock.now = 11.5
    rec.exit()
    snap = rec.snapshot()
    assert snap["self_s"] == {"dfs": 7.0, "solve_all": 3.0, "parse": 1.5}
    assert snap["calls"] == {"dfs": 1, "solve_all": 1, "parse": 1}
    assert snap["entries"] == 4
    assert snap["top_level_s"] == 11.5
    assert sum(snap["self_s"].values()) == snap["top_level_s"]


def test_spans_on_threads_do_not_nest_into_each_other():
    rec = SpanRecorder()
    started = threading.Barrier(2)

    def work():
        rec.enter("store.get")
        started.wait(timeout=5)
        rec.exit()

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    snap = rec.snapshot()
    assert snap["calls"] == {"store.get": 2}
    assert sum(snap["self_s"].values()) == pytest.approx(snap["top_level_s"])


def test_wrap_records_even_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("verify_candidate", boom)()
    assert rec.snapshot()["calls"] == {"verify_candidate": 1}


def test_wrapper_cost_is_small_and_positive():
    cost = wrapper_cost_s(calls=20_000)
    assert 0.0 <= cost < 1e-3


# -- the independent reference ------------------------------------------------------


SHAPES = {"A": (6, 5), "B": (6, 5)}


def test_reference_accepts_an_equivalent_program():
    emitted = "def inner(A, B):\n    return np.sum(np.transpose(B) * np.transpose(A))\n"
    assert reference.check_emitted("np.trace(A @ B.T)", emitted, SHAPES, seed=3) is None


def test_reference_rejects_a_wrong_program():
    emitted = "def inner(A, B):\n    return np.sum(A + B)\n"
    assert reference.check_emitted("np.sum(A * B)", emitted, SHAPES, seed=3) is not None


def test_reference_rejects_a_wrong_shape_and_a_crash():
    wrong_shape = "def k(A, B):\n    return np.sum(A * B, axis=0)\n"
    crash = "def k(A, B):\n    return np.dot(A, B)\n"  # (6,5) @ (6,5) is undefined
    assert reference.check_emitted("np.sum(A * B)", wrong_shape, SHAPES, seed=3) is not None
    assert "raised" in reference.check_emitted("np.sum(A * B)", crash, SHAPES, seed=3)


def test_inputs_are_seeded_and_on_the_positive_box():
    a = reference.make_inputs(SHAPES, seed=9)
    b = reference.make_inputs(SHAPES, seed=9)
    assert all((a[k] == b[k]).all() for k in a)
    assert all(((v >= 0.5) & (v < 2.0)).all() for v in a.values())


# -- workloads ------------------------------------------------------------------------


def test_request_stream_is_seeded_and_starts_with_every_first_sighting():
    def take(seed, n=300):
        stream = request_stream(seed)
        return [next(stream) for _ in range(n)]

    assert take(4) == take(4)
    assert take(4) != take(5)
    firsts = take(4, len(SERVE_PATTERNS))
    assert [name for _, _, name, _ in firsts] == [p[0] for p in SERVE_PATTERNS]
    for _, _, _, shapes in take(4):
        assert all(3 <= d <= 8 for shape in shapes.values() for d in shape)
    assert all(3 <= d <= 8 for dims in SERVE_DIMS for d in dims)


def test_warm_set_covers_the_search_set_and_comes_from_the_cold_set():
    warm = set(SUITES["suite-warm"])
    assert set(SUITE_SEARCH) <= warm
    assert warm <= set(SUITES["suite-cold"])


def test_cold_subsets_split_the_cold_set():
    cold = SUITES["suite-cold"]
    assert len(set(cold)) == len(cold) == 30
    assert set(SUITE_SEARCH) <= set(cold)
    assert len(SUITE_ENUM) + len(SUITE_SEARCH) == len(cold)


# -- the traced pass, end to end ----------------------------------------------------------


def test_traced_pass_self_times_add_up_to_the_batch(tmp_path):
    out = tmp_path / "pass.json"
    subprocess.run(
        [sys.executable, str(HERE / "suite_pass.py"), "--kernels", "synth_12", "--out", str(out),
         "--trace"],
        check=True, timeout=120,
    )
    result = json.loads(out.read_text())
    spans = result["spans"]
    assert result["unwrapped"] == []
    assert {"parse", "symbolic_execute", "build_library", "dfs"} <= set(spans["calls"])
    unattributed = result["batch_s"] - spans["top_level_s"]
    assert 0.0 <= unattributed < result["batch_s"]
    assert sum(spans["self_s"].values()) + unattributed == pytest.approx(result["batch_s"])
    assert spans["entries"] >= sum(spans["calls"].values())
    assert spans["wrapper_cost_s"] >= 0.0
    assert result["rows"][0]["improved"]


def test_metric_names_match_benchmark_json():
    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(run.SPAN_METRICS.values()) | set(run.COUNTER_METRICS.values()) <= set(run.PER_LAYER)


def readme_moves() -> dict:
    """The README's table of which end-to-end metric each layer metric moves."""
    text = (HERE / "README.md").read_text()
    section = text.split("Which end-to-end metric each layer metric should move", 1)[1]
    table = section.split("\n\n")[1]
    moves = {}
    for name, cell in re.findall(r"^\| `([^`]+)` \| (.+) \|$", table, re.MULTILINE):
        pairs = []
        for part in cell.split("; "):
            metric, workloads = re.fullmatch(r"`([^`]+)` on (.+)", part).groups()
            pairs.append((metric, tuple(workloads.split(", "))))
        moves[name] = tuple(pairs)
    return moves


def test_every_layer_metric_names_what_it_moves():
    import run

    assert set(run.LAYER_MOVES) == set(run.PER_LAYER)
    for pairs in run.LAYER_MOVES.values():
        for metric, workloads in pairs:
            assert metric in run.END_TO_END
            assert set(workloads) <= set(run.WORKLOADS)
    assert readme_moves() == run.LAYER_MOVES
