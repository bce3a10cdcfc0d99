#!/usr/bin/env python3
"""The repository benchmark: the paper suite cold, searched and warm, plus
daemon traffic, end to end and per layer.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each exists):

* ``suite-cold``  — the kernels settled at the DFS root and the kernels
  whose DFS searches, cold, no cache;
* ``suite-warm``  — the search kernels and the Table II kernels again,
  against a ``PersistentCache`` that set-up filled with one cold pass;
* ``serve-mixed`` — a closed loop of two clients against
  ``stenso-serve --workers 2``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it makes a separate traced run and reports the per-layer
metrics.  Every emitted program is checked against the original source on
seeded inputs with plain NumPy (``reference.py``).  The last line of
standard output is one JSON object; the exit code is 1 when any output
failed a check, 2 when the program under test cannot be found or a step of
the run could not complete (no result is printed then).
"""

from __future__ import annotations

import os

#: One BLAS thread in this process and every process it starts.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import COLD_SUBSETS, SERVE_PATTERNS, SUITES, request_stream  # noqa: E402

WORKLOADS = (*SUITES, "serve-mixed")

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "kernel_s_p50": "s",
    "flops_ratio_geomean": "ratio",
    "improved_kernels": "count",
    "gen_speedup_geomean": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "latency_s_p50": "s",
    "latency_s_p90": "s",
    "throughput_rps": "1/s",
}

PER_LAYER = {
    "synth.library.build_s": "s",
    "synth.library.stubs": "count",
    "synth.library.sketches": "count",
    "symexec.execute_s": "s",
    "symexec.equiv.residue_batteries": "count",
    "symexec.equiv.fingerprint_rejects": "count",
    "symexec.equiv.sympy_fallbacks": "count",
    "synth.solver.solve_s": "s",
    "synth.solver.calls": "count",
    "synth.solver.solved_ratio": "ratio",
    "synth.search.dfs_self_s": "s",
    "synth.search.base_match_s": "s",
    "synth.search.nodes_expanded": "count",
    "synth.search.pruned_bound": "count",
    "synth.search.pruned_simplification": "count",
    "synth.cache.load_s": "s",
    "synth.cache.save_s": "s",
    "synth.cache.library_hits": "count",
    "synth.cache.solver_hits": "count",
    "synth.cache.cost_hits": "count",
    "cost.program_cost_s": "s",
    "cost.calls": "count",
    "verify.candidate_s": "s",
    "ir.parse_s": "s",
    "pipeline.rule_cache_s": "s",
    "serve.ping_s": "s",
    "serve.submit_s": "s",
    "serve.log_record_s": "s",
    "serve.result_wait_s": "s",
    "serve.store_get_s": "s",
    "serve.served_from.store": "share",
    "serve.served_from.rule-cache": "share",
    "serve.served_from.pattern": "share",
    "serve.served_from.synthesis": "share",
    "serve.served_from.dedup": "share",
}

#: Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "build_library": "synth.library.build_s",
    "symbolic_execute": "symexec.execute_s",
    "solve_all": "synth.solver.solve_s",
    "dfs": "synth.search.dfs_self_s",
    "base_match": "synth.search.base_match_s",
    "cache.load": "synth.cache.load_s",
    "cache.save": "synth.cache.save_s",
    "program_cost": "cost.program_cost_s",
    "verify_candidate": "verify.candidate_s",
    "parse": "ir.parse_s",
    "rule_cache": "pipeline.rule_cache_s",
    "log.record": "serve.log_record_s",
    "store.get": "serve.store_get_s",
}

#: Registry counter -> per-layer count metric.
COUNTER_METRICS = {
    "equiv.residue_batteries": "symexec.equiv.residue_batteries",
    "equiv.fingerprint_rejects": "symexec.equiv.fingerprint_rejects",
    "equiv.sympy_fallbacks": "symexec.equiv.sympy_fallbacks",
    "solver.calls": "synth.solver.calls",
    "search.nodes_expanded": "synth.search.nodes_expanded",
    "search.prune.bound": "synth.search.pruned_bound",
    "search.prune.simplification": "synth.search.pruned_simplification",
    "solver.cache_hits": "synth.cache.solver_hits",
    "cost.cache_hits": "synth.cache.cost_hits",
}

SERVED_FROM = ("store", "rule-cache", "pattern", "synthesis", "dedup")

_COLD, _WARM, _SERVE = (*SUITES, "serve-mixed")
_SUITE_WORKLOADS = tuple(SUITES)

#: Per-layer metric -> the (end-to-end metric, workloads) pairs it should
#: move.  Printed in every traced report and tabled in README.md.
LAYER_MOVES = {
    **dict.fromkeys(
        ("synth.library.build_s", "synth.library.stubs", "synth.library.sketches",
         "synth.solver.solve_s", "synth.solver.calls", "synth.solver.solved_ratio",
         "synth.search.dfs_self_s", "synth.search.base_match_s", "synth.search.nodes_expanded",
         "synth.search.pruned_bound", "synth.search.pruned_simplification"),
        (("batch_s", (_COLD,)),),
    ),
    **dict.fromkeys(
        ("symexec.execute_s", "symexec.equiv.residue_batteries",
         "symexec.equiv.fingerprint_rejects", "symexec.equiv.sympy_fallbacks"),
        (("batch_s", (_COLD, _WARM)),),
    ),
    **dict.fromkeys(
        ("synth.cache.load_s", "synth.cache.save_s", "synth.cache.library_hits",
         "synth.cache.solver_hits", "synth.cache.cost_hits"),
        (("batch_s", (_WARM,)), ("setup_s", (_WARM,))),
    ),
    **dict.fromkeys(("cost.program_cost_s", "cost.calls"), (("batch_s", (_WARM, _COLD)),)),
    "verify.candidate_s": (("kernel_s_p50", _SUITE_WORKLOADS), ("latency_s_p50", (_SERVE,))),
    "ir.parse_s": (("batch_s", _SUITE_WORKLOADS), ("latency_s_p50", (_SERVE,))),
    **dict.fromkeys(
        ("pipeline.rule_cache_s", "serve.ping_s", "serve.submit_s", "serve.log_record_s"),
        (("latency_s_p50", (_SERVE,)),),
    ),
    **dict.fromkeys(
        ("serve.result_wait_s", "serve.store_get_s",
         *(f"serve.served_from.{k}" for k in SERVED_FROM)),
        (("latency_s_p90", (_SERVE,)), ("throughput_rps", (_SERVE,))),
    ),
}

#: Suite passes a timed run makes at least; more follow while they fit in
#: ``--seconds``.  Suite times are the fastest over passes: the reference
#: host alternates between a steady fast state and slow stretches of up to
#: about 40 s, and the fastest of two passes lands in the fast state far
#: more often than one pass does (README.md, "Steadiness").
MIN_PASSES = {"suite-cold": 2, "suite-warm": 2}
#: Cold-start probes per suite run (half before the passes, half after) and
#: daemon starts per serve-mixed run; ``setup_s`` is their median.
SETUP_PROBES = 9
DAEMON_STARTS = 5
FILL_PROCESSES = max(1, min(os.cpu_count() or 1, 4))
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
#: serve-mixed's batch: the first requests of the stream, which include
#: every pattern's first sighting.  A timed run serves it on two fresh
#: daemons and keeps the faster; on the second, the throughput window of
#: ``--seconds`` starts once the batch has completed.
SERVE_BATCH = 100
SERVE_BATCHES = 2
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A benchmark step could not run (not an output mismatch)."""


# -- processes -------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str]) -> float:
    """Run one fresh interpreter to completion; returns its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return time.perf_counter() - start


def pass_cmd(names, out: Path, cache: Path | None = None, trace: bool = False) -> list[str]:
    cmd = [sys.executable, str(HERE / "suite_pass.py"), "--kernels", ",".join(names), "--out", str(out)]
    if cache is not None:
        cmd += ["--cache", str(cache)]
    if trace:
        cmd.append("--trace")
    return cmd


def suite_pass(names, out: Path, cache: Path | None = None, trace: bool = False) -> dict:
    run_child(pass_cmd(names, out, cache, trace))
    return json.loads(out.read_text())


def setup_probe(names) -> float:
    """Cold start of a suite process: interpreter, imports, kernel parsing."""
    code = (
        "from repro.bench.suite import get_benchmark\n"
        "import repro.synth.superoptimizer\n"
        f"for name in {list(names)!r}:\n"
        "    get_benchmark(name).parse_synth()\n"
    )
    return run_child([sys.executable, "-c", code])


def fill_cache(names, cache: Path, work: Path) -> tuple[float, dict]:
    """One cold pass over ``names`` into ``cache``, spread over processes."""
    parts = [names[i::FILL_PROCESSES] for i in range(FILL_PROCESSES) if names[i::FILL_PROCESSES]]
    start = time.perf_counter()
    procs = []
    for i, part in enumerate(parts):
        out = work / f"fill{i}.json"
        proc = subprocess.Popen(pass_cmd(part, out, cache), cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        procs.append((out, proc))
    errors = []
    for _out, proc in procs:
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        if proc.returncode != 0:
            errors.append(err[-2000:])
    seconds = time.perf_counter() - start
    if errors:
        raise BenchError("cache fill failed: " + " | ".join(errors))
    cold = {}
    for out, _proc in procs:
        for row in json.loads(out.read_text())["rows"]:
            cold[row["name"]] = row
    return seconds, cold


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def host_info() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": metadata.version("sympy"),
        "blas_threads": BLAS_ENV,
        "fresh_interpreter": "every suite pass, probe, fill worker and daemon is a new process",
    }


# -- checks ------------------------------------------------------------------------


class Checker:
    """Reference verdicts, memoized per (original, emitted, shapes)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._verdicts: dict = {}

    def check(self, original: str, emitted: str, shapes) -> str | None:
        key = (original, emitted, json.dumps(shapes, sort_keys=True))
        if key not in self._verdicts:
            self._verdicts[key] = reference.check_emitted(original, emitted, shapes, self.seed)
        return self._verdicts[key]


def layer_metrics(self_s: dict, calls: dict, counters: dict) -> dict:
    """Map span self times and registry counters onto the per-layer names."""
    out = {name: 0.0 for name in PER_LAYER}
    for span, metric in SPAN_METRICS.items():
        out[metric] = self_s.get(span, 0.0)
    for counter, metric in COUNTER_METRICS.items():
        out[metric] = counters.get(counter, 0)
    out["cost.calls"] = calls.get("program_cost", 0)
    attempts = counters.get("solver.calls", 0) + counters.get("solver.cache_hits", 0)
    out["synth.solver.solved_ratio"] = counters.get("solver.hits", 0) / attempts if attempts else 0.0
    return out


def sum_counters(dicts) -> dict:
    total: dict = {}
    for d in dicts:
        for name, value in d.items():
            total[name] = total.get(name, 0) + value
    return total


# -- suite workloads -------------------------------------------------------------


def run_suite(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    names = list(SUITES[workload])
    cache = cold = None
    setup_s = 0.0
    probes: list[float] = []
    probe = not trace and workload != "suite-warm"
    if workload == "suite-warm":
        # One fill: a second one would not fit the run budget (README.md).
        cache = work / "cache"
        setup_s, cold = fill_cache(names, cache, work)
    elif probe:
        probes = [setup_probe(names) for _ in range(SETUP_PROBES // 2)]

    untraced = None
    if trace:
        untraced = suite_pass(names, work / "untraced.json", cache)
        passes = [suite_pass(names, work / "traced.json", cache, trace=True)]
    else:
        passes = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            passes.append(suite_pass(names, work / f"pass{len(passes)}.json", cache))
            took = time.perf_counter() - began
            if len(passes) >= MIN_PASSES[workload] and time.perf_counter() - start + took > seconds:
                break
    if probe:
        probes += [setup_probe(names) for _ in range(SETUP_PROBES - len(probes))]
        setup_s = statistics.median(probes)

    checker = Checker(seed)
    failures = []
    attempted = 0
    for number, p in enumerate(passes):
        for row in p["rows"]:
            attempted += 1
            reason = None
            if row["status"] != "ok":
                reason = f"status {row['status']}"
            else:
                reason = checker.check(row["original_source"], row["optimized_source"], row["check_shapes"])
            if reason is None and cold is not None:
                if row["optimized_source"] != cold[row["name"]].get("optimized_source"):
                    reason = "warm output differs from the cold output of set-up"
            if reason is not None:
                failures.append(f"pass {number} kernel {row['name']}: {reason}")

    first = passes[0]["rows"]
    batch = [p["batch_s"] for p in passes]
    report = {
        "kernels": len(names),
        "passes": len(passes),
        "pass_batch_s": batch,
        "per_kernel_s": {
            row["name"]: min(p["rows"][i]["seconds"] for p in passes)
            for i, row in enumerate(first)
        },
        "shares": {
            "solver_of_batch_s": {
                "value": sum(r["solver_s"] for r in first) / passes[0]["batch_s"],
                "base": "batch_s (SearchStats.time_solver summed over kernels)",
            },
            "library_restore_hits_of_kernels": {
                "value": sum(r["library_cache_hit"] for r in first) / len(first),
                "base": "kernels",
            },
        },
    }
    if workload == "suite-cold":
        # The two kinds of kernel, apart: summed per-kernel times.
        report["subset_s"] = {
            subset: sum(report["per_kernel_s"][name] for name in subset_names)
            for subset, subset_names in COLD_SUBSETS.items()
        }
    if cold is not None:
        report["cold_fill_per_kernel_s"] = {name: row["seconds"] for name, row in cold.items()}

    if trace:
        traced = passes[0]
        spans = traced["spans"]
        counters = sum_counters(r["counters"] for r in first)
        metrics = layer_metrics(spans["self_s"], spans["calls"], counters)
        metrics["synth.library.stubs"] = sum(r["stubs"] for r in first)
        metrics["synth.library.sketches"] = sum(r["sketches"] for r in first)
        metrics["synth.cache.library_hits"] = sum(r["library_cache_hit"] for r in first)
        unattributed = traced["batch_s"] - spans["top_level_s"]
        report["moves"] = LAYER_MOVES
        report["trace"] = {
            "batch_s": traced["batch_s"],
            "untraced_batch_s": untraced["batch_s"],
            "overhead_s": traced["batch_s"] - untraced["batch_s"],
            "overhead_est_s": spans["entries"] * spans["wrapper_cost_s"],
            "span_entries": spans["entries"],
            "wrapper_cost_s": spans["wrapper_cost_s"],
            "self_s": spans["self_s"],
            "span_calls": spans["calls"],
            "unattributed_s": unattributed,
            "self_plus_unattributed_s": sum(spans["self_s"].values()) + unattributed,
            "unwrapped": traced["unwrapped"],
        }
        return {"metrics": metrics, "report": report, "failures": failures, "attempted": attempted}

    # One sample per kernel, its fastest pass: pooling the passes put the
    # p50 in the gap between the warm set's two clusters of kernels.
    samples = list(report["per_kernel_s"].values())
    kernel_p50, basis50 = reference.tail_stat(samples, 0.5)
    latency_p90, basis90 = reference.tail_stat(samples, 0.9)
    speedups = [
        reference.gen_speedup(r["original_source"], r["optimized_source"], r["check_shapes"], seed)
        for r in first
        if r["improved"] and r["status"] == "ok"
        and checker.check(r["original_source"], r["optimized_source"], r["check_shapes"]) is None
    ]
    batch_s = min(batch)
    metrics = {
        "setup_s": setup_s,
        "batch_s": batch_s,
        "kernel_s_p50": kernel_p50,
        "flops_ratio_geomean": reference.geomean([r["flops_ratio"] for r in first]),
        "improved_kernels": sum(r["improved"] for r in first),
        "gen_speedup_geomean": reference.geomean(speedups + [1.0] * (len(first) - len(speedups))),
        "ok_frac": 1.0 - len(failures) / attempted,
        "peak_rss_mb": peak_rss_mb(),
        "latency_s_p50": kernel_p50,
        "latency_s_p90": latency_p90,
        "throughput_rps": len(names) / batch_s,
    }
    report["percentile_basis"] = {
        "kernel_s_p50": basis50, "latency_s_p50": basis50, "latency_s_p90": basis90,
        "samples": len(samples),
    }
    return {"metrics": metrics, "report": report, "failures": failures, "attempted": attempted}


# -- serving workload --------------------------------------------------------------


def closed_loop(socket_path: str, seed: int, window: float, trace: bool) -> tuple[list, float, float]:
    """Two clients, each sending its next request once its last completes.

    Runs until the first :data:`SERVE_BATCH` requests of the stream have
    completed, then for ``window`` seconds more.  Returns one record per
    request, the time the batch completed and the time the window ended,
    both counted from the loop's start.
    """
    from repro.pipeline import KernelSpec
    from repro.serve.client import ServeClient

    sources = {name: source for name, source, _shapes, _timing in SERVE_PATTERNS}
    stream = request_stream(seed)
    lock = threading.Lock()
    records: list[dict] = []
    errors: list[str] = []
    batch_left = SERVE_BATCH
    batch_s: float | None = None
    start = time.perf_counter()

    def client_loop() -> None:
        nonlocal batch_left, batch_s
        client = ServeClient(socket_path, timeout_s=60.0)
        while True:
            with lock:
                if batch_s is not None and time.perf_counter() - start >= batch_s + window:
                    return
                index, pattern, name, shapes = next(stream)
            rec = {"index": index, "pattern": pattern, "name": name}
            began = time.perf_counter()
            try:
                if trace:
                    began = time.perf_counter()
                    client.ping()
                    rec["ping_s"] = time.perf_counter() - began
                began = time.perf_counter()
                rec["id"] = client.submit(KernelSpec(name, sources[pattern], shapes))
                submitted = time.perf_counter()
                outcome = client.result(rec["id"], wait=True, timeout_s=120.0)
                rec.update(
                    submit_s=submitted - began,
                    wait_s=time.perf_counter() - submitted,
                    status=outcome.status,
                    improved=outcome.improved,
                    optimized_source=outcome.optimized_source,
                    metrics=outcome.metrics,
                )
            except Exception as exc:  # noqa: BLE001 — a failed request is a result, not a crash
                rec["error"] = f"{type(exc).__name__}: {exc}"
            now = time.perf_counter()
            rec["latency_s"] = now - began
            rec["done_s"] = now - start
            with lock:
                records.append(rec)
                if index < SERVE_BATCH:
                    batch_left -= 1
                    if batch_left == 0:
                        batch_s = rec["done_s"]

    def guarded() -> None:
        try:
            client_loop()
        except Exception as exc:  # noqa: BLE001 — reported after the join
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=guarded, daemon=True) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    deadline = time.perf_counter() + window + CHILD_TIMEOUT_S
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
        if thread.is_alive():
            raise BenchError("a serving client did not finish")
    if errors or batch_s is None:
        raise BenchError(f"the serving clients stopped before the batch completed: {errors}")
    records.sort(key=lambda r: r["index"])
    return records, batch_s, batch_s + window


def serve_cmd(work: Path, name: str, spans_file: Path | None) -> tuple[list[str], str]:
    """The daemon command for state directory ``work/name``, and its socket."""
    socket_abs = work / f"{name}.sock"
    serve_args = [
        "--state-dir", str(work / name),
        "--workers", str(SERVE_WORKERS),
        "--socket", os.path.relpath(socket_abs, ROOT),
    ]
    if spans_file is not None:
        cmd = [sys.executable, str(HERE / "serve_launcher.py"), "--spans-out", str(spans_file),
               "--", *serve_args]
    else:
        cmd = [sys.executable, "-m", "repro.cli.serve", *serve_args]
    return cmd, os.path.relpath(socket_abs)


def start_daemon(cmd: list[str], socket_path: str, log) -> tuple[subprocess.Popen, float]:
    """Start a daemon; returns it and the seconds until it answered a ping."""
    from repro.serve.client import ServeClient

    start = time.perf_counter()
    daemon = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    try:
        ServeClient(socket_path, timeout_s=60.0).wait_ready(timeout_s=60.0)
    except BaseException:
        daemon.kill()
        daemon.wait()
        raise
    return daemon, time.perf_counter() - start


def stop_daemon(daemon: subprocess.Popen, socket_path: str | None, log) -> None:
    """Drain and stop a daemon (kill it if that fails); it must exit 0."""
    from repro.serve.client import ServeClient

    try:
        if socket_path is not None:
            ServeClient(socket_path, timeout_s=60.0).shutdown(drain=True)
            daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    if daemon.returncode != 0:
        log.flush()
        raise BenchError(f"daemon exited {daemon.returncode}: {Path(log.name).read_text()[-2000:]}")


def run_serve(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    from repro.cost import NODE_EPSILON, make_cost_model
    from repro.ir.parser import parse
    from repro.ir.types import float_tensor
    from repro.serve.client import ServeClient

    spans_file = work / "daemon-spans.json" if trace else None
    starts = []
    # Batch-only runs on fresh daemons: (records, batch_s) each.
    early: list[tuple[list, float]] = []
    with open(work / "daemon.log", "w") as log:
        if not trace:
            for i in range(DAEMON_STARTS - 1):
                cmd, socket_path = serve_cmd(work, f"probe{i}", None)
                daemon, took = start_daemon(cmd, socket_path, log)
                try:
                    if i < SERVE_BATCHES - 1:
                        records, batch_s, _end = closed_loop(socket_path, seed, 0.0, False)
                        early.append((records, batch_s))
                finally:
                    stop_daemon(daemon, socket_path, log)
                starts.append(took)
        cmd, socket_path = serve_cmd(work, "state", spans_file)
        daemon, took = start_daemon(cmd, socket_path, log)
        starts.append(took)
        try:
            records, batch_s, window_end = closed_loop(socket_path, seed, seconds, trace)
            client = ServeClient(socket_path, timeout_s=60.0)
            for rec in records:
                if "id" in rec:
                    rec["served_from"] = client.status(rec["id"]).get("served_from")
            daemon_metrics = client.metrics()
        finally:
            stop_daemon(daemon, socket_path, log)
    setup_s = statistics.median(starts)

    patterns = {name: (source, timing) for name, source, _shapes, timing in SERVE_PATTERNS}
    checker = Checker(seed)
    failures = []
    batches = [*early, (records, batch_s)]
    for number, (batch_records, _batch_s) in enumerate(batches):
        for rec in batch_records:
            source, timing = patterns[rec["pattern"]]
            if "error" in rec:
                reason = rec["error"]
            elif rec["status"] != "ok":
                reason = f"status {rec['status']}"
            else:
                reason = checker.check(source, rec["optimized_source"], timing)
            if reason is not None:
                failures.append(f"daemon {number} request {rec['index']} ({rec['name']}): {reason}")
    attempted = sum(len(batch_records) for batch_records, _ in batches)

    counters = daemon_metrics.get("counters", {})
    requests = len(records)
    served = {k: counters.get(f"serve.served_from.{k}", 0) / requests for k in SERVED_FROM}
    firsts = records[: len(SERVE_PATTERNS)]
    by_class: dict[str, list[float]] = {}
    for rec in records:
        by_class.setdefault(rec.get("served_from") or "none", []).append(rec["latency_s"])
    report = {
        "first_sightings": {
            r["pattern"]: {k: r.get(k) for k in ("improved", "served_from", "latency_s", "optimized_source", "error")}
            for r in firsts
        },
        "requests": requests,
        "batch_s_per_daemon": [b for _, b in batches],
        "clients": SERVE_CLIENTS,
        "workers": SERVE_WORKERS,
        "loop": "closed",
        "shares": {"served_from_of_requests": {
            "value": served, "base": "requests attempted on the last daemon"}},
        # Latency per class, from each request's own served_from.
        "latency_by_served_from": {
            k: {
                "requests": len(v),
                "share": len(v) / requests,
                "p50_s": reference.tail_stat(v, 0.5)[0],
                "p50_basis": reference.tail_stat(v, 0.5)[1],
                "p90_s": reference.tail_stat(v, 0.9)[0],
                "p90_basis": reference.tail_stat(v, 0.9)[1],
            }
            for k, v in sorted(by_class.items())
        },
        "daemon_counters": {
            k: v for k, v in counters.items()
            if k.startswith(("serve.status.", "serve.served_from.", "serve.completed", "serve.submitted"))
        },
    }

    if trace:
        spans = json.loads(spans_file.read_text())
        run_counters = sum_counters(r.get("metrics", {}).get("counters", {}) for r in firsts)
        metrics = layer_metrics(spans["spans"]["self_s"], spans["spans"]["calls"], run_counters)
        metrics["serve.ping_s"] = sum(r.get("ping_s", 0.0) for r in records)
        metrics["serve.submit_s"] = sum(r.get("submit_s", 0.0) for r in records)
        metrics["serve.result_wait_s"] = sum(r.get("wait_s", 0.0) for r in records)
        for k, share in served.items():
            metrics[f"serve.served_from.{k}"] = share
        report["moves"] = LAYER_MOVES
        report["trace"] = {
            "daemon_self_s": spans["spans"]["self_s"],
            "daemon_span_calls": spans["spans"]["calls"],
            "overhead_est_s": spans["spans"]["entries"] * spans["spans"]["wrapper_cost_s"],
            "unwrapped": spans["unwrapped"],
            "elapsed_s": window_end,
        }
        return {"metrics": metrics, "report": report, "failures": failures, "attempted": attempted}

    flops = make_cost_model("flops")

    def cost(source: str, timing) -> float:
        return flops.program_cost(parse(source, {k: float_tensor(*v) for k, v in timing.items()}).node)

    ratios, speedups = [], []
    for rec in firsts:
        source, timing = patterns[rec["pattern"]]
        if "error" in rec or not rec["improved"]:
            ratios.append(1.0)
            continue
        ratios.append(cost(source, timing) / max(cost(rec["optimized_source"], timing), NODE_EPSILON))
        if checker.check(source, rec["optimized_source"], timing) is None:
            speedups.append(reference.gen_speedup(source, rec["optimized_source"], timing, seed))
    latencies = [r["latency_s"] for r in records]
    # Each first sighting's fastest latency over the daemons.
    first_latency = [
        min(batch_records[i]["latency_s"] for batch_records, _ in batches)
        for i in range(len(firsts))
    ]
    kernel_p50, basis_k = reference.tail_stat(first_latency, 0.5)
    latency_p50, basis50 = reference.tail_stat(latencies, 0.5)
    latency_p90, basis90 = reference.tail_stat(latencies, 0.9)
    improved = sum(1 for r in firsts if r.get("improved"))
    metrics = {
        "setup_s": setup_s,
        "batch_s": min(b for _, b in batches),
        "kernel_s_p50": kernel_p50,
        "flops_ratio_geomean": reference.geomean(ratios),
        "improved_kernels": improved,
        "gen_speedup_geomean": reference.geomean(speedups + [1.0] * (len(firsts) - len(speedups))),
        "ok_frac": 1.0 - len(failures) / attempted,
        "peak_rss_mb": peak_rss_mb(),
        "latency_s_p50": latency_p50,
        "latency_s_p90": latency_p90,
        # Requests completed in the window that follows the batch.
        "throughput_rps": sum(batch_s < r["done_s"] <= window_end for r in records) / seconds,
    }
    report["percentile_basis"] = {
        "kernel_s_p50": basis_k, "kernel_samples": len(firsts),
        "latency_s_p50": basis50, "latency_s_p90": basis90, "latency_samples": len(latencies),
    }
    return {"metrics": metrics, "report": report, "failures": failures, "attempted": attempted}


# -- entry point -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the program under test is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "serve-mixed":
            result = run_serve(args.seed, args.seconds, bool(args.trace), work)
        else:
            result = run_suite(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception as exc:  # noqa: BLE001 — no result is printed; exit 2, not 1 (a check failed)
        traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    report = dict(result["report"], workload=args.workload, seed=args.seed, host=host_info(),
                  failures=result["failures"])
    print("report " + json.dumps(report, sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:40s} {result['metrics'][name]:>14.6g} {unit}")
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
