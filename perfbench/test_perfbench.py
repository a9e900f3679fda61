"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import gc
import io
import json
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from trivalent import lookup_logic, prover  # noqa: E402


# ---------------------------------------------------------------------------
# Tail percentile

@pytest.mark.parametrize(
    "n, p",
    [(10, None), (11, 9), (20, 50), (199, 94), (200, 95), (1000, 99), (100000, 99)],
)
def test_tail_percentile_leaves_ten_ops_beyond(n, p):
    assert run.tail_percentile(n) == p
    if p is not None:
        rank = -(-p * n // 100)
        assert n - rank >= 10
        assert p == 99 or n - -(-(p + 1) * n // 100) < 10


def test_op_ms_tail_is_the_median_of_block_tails():
    phase = run.Phase()
    # three blocks of 1000 ops; the middle one holds the slowest ops
    block = [ms * 1_000_000 for ms in range(1000, 0, -1)]
    phase.durations = block + [3 * d for d in block] + [2 * d for d in block]
    metrics, tails = run.end_to_end(phase, [0.5], 1024)
    assert [t["percentile"] for t in tails] == [99] * 3
    assert [t["beyond"] for t in tails] == [10] * 3
    assert [t["ms"] for t in tails] == [990, 2970, 1980]
    assert metrics["op_ms_tail"] == 1980
    assert metrics["op_ms_p50"] == 819
    assert metrics["ops_per_s"] == pytest.approx(3000 / (6 * 500.5))


def test_op_ms_tail_of_a_few_ops_is_the_slowest():
    phase = run.Phase()
    phase.durations = [2_000_000, 5_000_000]
    metrics, tails = run.end_to_end(phase, [0.5], 1024)
    assert tails == [{"percentile": 100, "n": 2, "beyond": 0, "ms": 5.0}]
    assert metrics["op_ms_tail"] == 5.0


class _Cycles(workloads.Workload):
    """Each op leaves reference cycles that only the collector frees."""

    name = "cycles"
    collect_each_op = True

    def __init__(self):
        super().__init__()
        self.items = [2000]

    def op(self, item):
        for _ in range(item):
            node = {}
            node["self"] = node
        return gc.isenabled()

    def check(self, item, out):
        return "collector ran during the op" if out else None


def test_collection_between_ops_is_charged_to_throughput_only():
    phase = run.run_phase(_Cycles(), 0.05)
    assert gc.isenabled()
    assert not phase.wrong and phase.gc_ns > 0
    assert sum(phase.durations) + phase.gc_ns >= 0.05e9
    metrics, _ = run.end_to_end(phase, [0.5], 1024)
    assert metrics["ops_per_s"] == pytest.approx(
        phase.attempted / ((sum(phase.durations) + phase.gc_ns) / 1e9))


# ---------------------------------------------------------------------------
# Self time

def _tracer(rows):
    """A tracer holding (name, parent, start, end) rows."""
    t = spans.Tracer()
    for name, parent, start, end in rows:
        t.cols["name"].append(t.name_id(name))
        t.cols["op"].append(0)
        t.cols["parent"].append(parent)
        t.cols["start"].append(start)
        t.cols["end"].append(end)
    return t


def test_self_time_subtracts_the_union_of_children():
    t = _tracer([
        ("op", -1, 0, 100),
        ("a", 0, 10, 40),
        ("b", 1, 20, 30),   # grandchild: counts against a only
        ("c", 0, 35, 60),   # overlaps a: the union [10, 60] covers 50
        ("d", 0, 90, 120),  # runs past its parent: clipped to [90, 100]
    ])
    c = t.cols
    assert list(spans.self_times(c["parent"], c["start"], c["end"])) == [40, 20, 10, 25, 30]


def test_self_time_ignores_child_order():
    t = _tracer([("op", -1, 0, 10), ("late", 0, 6, 9), ("early", 0, 1, 3)])
    c = t.cols
    assert list(spans.self_times(c["parent"], c["start"], c["end"])) == [5, 3, 2]


def test_layer_metrics_average_over_ops_and_share_wall_time():
    ms = 1_000_000
    t = _tracer([
        ("op", -1, 0, 10 * ms),
        ("prover.search", 0, 1 * ms, 7 * ms),
        ("bisequent.build", 1, 2 * ms, 4 * ms),
        ("op", -1, 20 * ms, 30 * ms),
        ("prover.search", 3, 21 * ms, 23 * ms),
    ])
    m = spans.layer_metrics(t)
    assert m["prover.search.self_ms"] == pytest.approx((4 + 2) / 2)
    assert m["bisequent.build.calls"] == 0.5
    assert m["bisequent.build.ms"] == pytest.approx(1.0)
    assert m["prover.self_share"] == pytest.approx(6 / 20)
    assert m["bisequent.self_share"] == pytest.approx(2 / 20)
    assert m["untraced.self_share"] == pytest.approx(12 / 20)
    assert set(m) | {"logics.load.ms", "calculus.catalog.ms", "trace.overhead_share"} == set(
        spans.LAYER_METRICS)


def test_spans_round_trip_through_a_file(tmp_path):
    t = _tracer([("op", -1, 0, 10), ("cli.run", 0, 2, 9)])
    t.counters["prover.lookups"] = 3
    t.dump(tmp_path / "x.spans")
    loaded = spans.load_spans(tmp_path / "x.spans")
    host = _tracer([("op", -1, 0, 20)])
    host.absorb(loaded, 0)
    c = host.cols
    assert [host.names[n] for n in c["name"]] == ["op", "op", "cli.run"]
    assert list(c["parent"]) == [-1, 0, 1]
    assert host.counters == {"prover.lookups": 3}


def test_install_traces_the_prover_and_restores_it():
    logic = lookup_logic("K3")
    original = prover.complete_search
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert prover.complete_search is not original
        result = prover.prove(logic, "designated_1", (logic.parse("p & q"),), logic.parse("q"))
    finally:
        restore()
    assert prover.complete_search is original
    assert result.proved
    names = {tracer.names[n] for n in tracer.cols["name"]}
    assert {"prover.search", "bisequent.build", "calculus.apply_rule"} <= names
    assert tracer.counters["prover.lookups"] >= tracer.counters["prover.distinct"] > 0


# ---------------------------------------------------------------------------
# Deadlines and failures

class _Spin(workloads.Workload):
    """Op 1 of every 3 runs past the deadline."""

    name = "spin"
    deadline_s = 0.02

    def __init__(self):
        super().__init__()
        self.items = [0.0, 0.2, 0.0]

    def op(self, item):
        end = time.perf_counter() + item
        while time.perf_counter() < end:
            pass
        return item

    def check(self, item, out):
        return None


def test_in_process_deadline_is_counted_by_op_id():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        phase = run.run_phase(_Spin(), 0.1)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert phase.attempted >= 4
    assert phase.missed == [i for i in range(phase.attempted) if i % 3 == 1]
    assert not phase.wrong and not phase.crashed
    assert all(d < 0.15e9 for d in phase.durations)


def test_cli_deadline_stops_the_process():
    cli = workloads.Cli.__new__(workloads.Cli)
    cli.root = HERE.parent
    cli.env = {"PYTHONPATH": str(HERE.parent / "src")}
    cli.deadline_s = 0.001
    with pytest.raises(workloads.DeadlineExceeded):
        cli.op({"argv": ["list-logics"]})


def test_planted_wrong_verdict_fails_the_command(monkeypatch):
    real = prover.prove

    def flipped(logic, mode, premisses, conclusion, strategy="leftmost"):
        result = real(logic, mode, premisses, conclusion, strategy)
        if result.proved:
            return prover.Refuted(result.tree, {})
        return prover.Proved(result.tree)

    monkeypatch.setattr(prover, "prove", flipped)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run.gc, "freeze", lambda: None)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "deep", "--seed", "1", "--seconds", "0.2"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_share"]["value"] == 0


def test_missing_program_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "wide", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
