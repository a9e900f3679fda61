"""Benchmark of the trivalent prover, oracle and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,deep,wide,cli} --seed N \\
        --seconds S --trace {0,1}

Builds the workload's inputs from the seed, then runs ops one at a time
until their summed wall time reaches S seconds, checking every output.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
ops again with span tracing and prints the per-layer metrics plus the
tracing overhead.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 if
any op gave a wrong answer or crashed, 2 if the program cannot be found.
See README.md in this directory for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: fresh processes timed for ``setup_s``; the median is reported
SETUP_PROBES = 21
#: ops needed beyond the tail percentile
TAIL_BEYOND = 10
#: consecutive blocks of the timed ops; ``op_ms_tail`` is the median of
#: their tails, so that one slow spell of the machine sets at most one
TAIL_BLOCKS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile, at most 99, whose nearest-rank value
    has at least ``TAIL_BEYOND`` of ``n`` ops beyond it; None if there is
    none."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return None


def nearest_rank(sorted_values: list, p: float):
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


class Phase:
    """What happened to the ops of one timed or traced pass."""

    def __init__(self) -> None:
        self.durations: list[int] = []  # ns per op
        self.wrong: list[tuple[int, str]] = []
        self.crashed: list[tuple[int, str]] = []
        self.missed: list[int] = []  # ids of ops past the deadline
        self.gc_ns = 0  # collections run between ops (``collect_each_op``)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return len(self.wrong) + len(self.crashed) + len(self.missed)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "ok": self.attempted - self.failed,
            "wrong": len(self.wrong),
            "crashed": len(self.crashed),
            "deadline": len(self.missed),
            "deadline_missed_ids": self.missed,
            "gc_between_ops_s": self.gc_ns / 1e9,
            "wrong_examples": self.wrong[:5],
            "crash_examples": self.crashed[:5],
        }


def _on_alarm(signum, frame):
    import workloads

    raise workloads.DeadlineExceeded()


def run_phase(wl, seconds: float, tracer=None) -> Phase:
    """Closed loop over ``wl.items`` (wrapping around if they run out)
    until the ops' summed wall time reaches ``seconds``.  Op ``i`` is
    item ``i mod len(items)``, so op ids mean the same input in every run
    with the same seed.  Checking an op's output is not timed.

    With ``wl.collect_each_op`` the garbage collector is off while an op
    runs, and a full collection follows each op.  Its time counts toward
    ``seconds`` and ``ops_per_s`` but not toward the op's own duration,
    since an automatic pause lands on whichever op crosses the threshold."""
    import workloads

    phase = Phase()
    budget = seconds * 1e9
    spent = 0
    op_name = tracer.name_id("op") if tracer is not None else None
    i = 0
    while spent < budget:
        k = i % len(wl.items)
        if k == 0:
            wl.start_pass()
            # garbage of the previous pass is not this pass's cost
            gc.collect()
        item = wl.items[k]
        if tracer is not None:
            tracer.op = i
            tracer.on = True
            span = tracer.begin(op_name)
        status = None
        if wl.collect_each_op:
            gc.disable()
        t0 = time.perf_counter_ns()
        try:
            if wl.in_process:
                signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
            try:
                out = wl.op(item)
            finally:
                if wl.in_process:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except workloads.DeadlineExceeded:
            status = "deadline"
        except Exception as exc:  # a crash is counted, and the run goes on
            status = f"{type(exc).__name__}: {exc}"
        finally:
            if wl.collect_each_op:
                gc.enable()
        t1 = time.perf_counter_ns()
        if tracer is not None:
            if status is None:
                tracer.end(span)
            else:
                tracer.close_all()
            tracer.on = False
            wl.collect(span)
        if wl.collect_each_op:
            g0 = time.perf_counter_ns()
            gc.collect()
            collected = time.perf_counter_ns() - g0
            phase.gc_ns += collected
            spent += collected
        phase.durations.append(t1 - t0)
        spent += t1 - t0
        if status == "deadline":
            phase.missed.append(i)
        elif status is not None:
            phase.crashed.append((i, status))
        else:
            try:
                problem = wl.check(item, out)
            except Exception as exc:  # output the check cannot read is wrong
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                phase.wrong.append((i, problem))
        i += 1
    return phase


def measure_setup(wl, spans_dir: Path | None = None) -> list[float]:
    """Wall time of fresh processes from start until ``import trivalent``
    and the catalog of every logic the workload uses are ready.  One
    unmeasured probe goes first.  With ``spans_dir`` each probe also
    traces the loading and leaves its spans there."""
    names = ",".join(sorted(wl.logics))
    times = []
    for n in range(SETUP_PROBES + 1):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), names]
        if spans_dir is not None and n:
            cmd.append(str(spans_dir / f"setup-{n}.spans.gz"))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.communicate(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if n:
            times.append(t1 - t0)
    return times


def block_tail(durations: list[int]) -> dict:
    """The tail of one block of op durations (ns), in ms."""
    ms = sorted(d / 1e6 for d in durations)
    p = tail_percentile(len(ms)) or 100
    return {"percentile": p, "n": len(ms), "beyond": len(ms) - math.ceil(p * len(ms) / 100),
            "ms": nearest_rank(ms, p)}


def end_to_end(phase: Phase, setup: list[float], rss_kb: int) -> tuple[dict, list]:
    ms = sorted(d / 1e6 for d in phase.durations)
    n = len(ms)
    blocks = [block_tail(phase.durations[b * n // TAIL_BLOCKS:(b + 1) * n // TAIL_BLOCKS])
              for b in range(TAIL_BLOCKS)] if n >= TAIL_BLOCKS else [block_tail(phase.durations)]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / (sum(ms) / 1e3 + phase.gc_ns / 1e9),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": statistics.median([b["ms"] for b in blocks]),
        "peak_rss_mb": rss_kb / 1024,
        "ok_share": (phase.attempted - phase.failed) / phase.attempted,
    }
    return metrics, blocks


def traced_metrics(tracer, timed: Phase, traced: Phase, setup_dir: Path) -> dict:
    import spans

    metrics = spans.layer_metrics(tracer)
    load, catalog = [], []
    for path in sorted(setup_dir.glob("setup-*.spans.gz")):
        probe = spans.load_spans(path)
        total = spans.totals(probe["names"], probe["cols"])
        load.append(total.get("logics.load", 0) / 1e6)
        catalog.append(total.get("calculus.catalog", 0) / 1e6)
        path.unlink()
    metrics["logics.load.ms"] = statistics.median(load)
    metrics["calculus.catalog.ms"] = statistics.median(catalog)
    m = min(timed.attempted, traced.attempted)
    metrics["trace.overhead_share"] = 1 - sum(timed.durations[:m]) / sum(traced.durations[:m])
    return metrics


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "deep", "wide", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "trivalent" / "__init__.py").is_file():
        print(f"error: no trivalent package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "conftest.py").is_file():
        print(f"error: no tests/conftest.py under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    # keep the input pool out of the garbage collector's full passes, so
    # that their cost reflects the program's own objects
    gc.collect()
    gc.freeze()
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    timed = run_phase(wl, args.seconds)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    rss_kb = resource.getrusage(who).ru_maxrss
    phases = [timed]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "deadline_s": wl.deadline_s,
        "items": len(wl.items),
        "timed": timed.summary(),
    }
    if args.trace:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        wl.tracer = tracer
        try:
            traced = run_phase(wl, args.seconds, tracer)
        finally:
            restore()
            wl.tracer = None
        phases.append(traced)
        spans_file = OUT / f"{wl.name}-seed{args.seed}.spans.gz"
        tracer.dump(spans_file)
        measure_setup(wl, OUT)
        metrics = traced_metrics(tracer, timed, traced, OUT)
        units = spans.LAYER_METRICS
        record["traced"] = {**traced.summary(), "spans": len(tracer),
                            "spans_file": str(spans_file.relative_to(ROOT))}
    else:
        metrics, record["op_ms_tail"] = end_to_end(timed, measure_setup(wl), rss_kb)
        units = END_TO_END
        record["setup_probes"] = SETUP_PROBES
    correct = not any(ph.wrong or ph.crashed for ph in phases)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
