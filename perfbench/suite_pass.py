"""One pass over a suite kernel set, in a fresh interpreter.

Run by ``run.py``; each pass is its own process because SymPy and the
intern table keep process-wide caches that would warm a second pass::

    python perfbench/suite_pass.py --kernels diag_dot,synth_1 --out pass.json \\
        [--cache DIR] [--trace]

Each kernel goes through the paper protocol: ``superoptimize_program`` at
its ``synth_shapes`` with the FLOPS model mapped through ``dim_map``,
timed around the call (parse included).  The JSON written to ``--out``
holds the batch time, one row per kernel, and with ``--trace`` the layer
spans recorded during the batch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _failed_row(bench, error: Exception, seconds: float) -> dict:
    return {
        "name": bench.name,
        "seconds": seconds,
        "status": f"error ({type(error).__name__}: {error})",
        "improved": False,
        "flops_ratio": 1.0,
        "solver_s": 0.0,
        "library_cache_hit": False,
        "stubs": 0,
        "sketches": 0,
        "counters": {},
    }


def _row(bench, result, seconds: float, flops) -> dict:
    """One kernel's outcome, with everything the parent checks or reports."""
    from repro.cost import NODE_EPSILON
    from repro.ir.parser import parse

    if isinstance(result, Exception):
        return _failed_row(bench, result, seconds)
    stats = result.stats
    snapshot = stats.metrics_snapshot()
    optimized = result.optimized_source
    # The reference compares at timing shapes.  An unimproved shape-template
    # kernel (reshape_dot) passes its synthesis-shape instantiation through,
    # which only runs at synthesis shapes.
    shapes = bench.timing_shapes
    if not result.improved and "{" in bench.source:
        shapes = bench.synth_shapes
    original = bench.source_for(shapes)
    types = bench.types_for(shapes)
    flops_original = flops.program_cost(parse(original, types).node)
    flops_optimized = (
        flops.program_cost(parse(optimized, types).node) if result.improved else flops_original
    )
    return {
        "name": bench.name,
        "seconds": seconds,
        "status": result.status,
        "improved": result.improved,
        "original_source": original,
        "optimized_source": optimized,
        "check_shapes": {k: list(v) for k, v in shapes.items()},
        # A program with no op at all (``A``) is priced as one op's charge.
        "flops_ratio": flops_original / max(flops_optimized, NODE_EPSILON),
        "solver_s": stats.time_solver,
        "library_cache_hit": stats.library_cache_hit,
        "stubs": stats.stub_count,
        "sketches": stats.sketch_count,
        "counters": snapshot["counters"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernels", required=True, help="comma-separated suite names")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cache", default=None, help="PersistentCache directory")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.bench.suite import get_benchmark
    from repro.cost import make_cost_model
    from repro.synth import PersistentCache
    from repro.synth.superoptimizer import superoptimize_program

    benches = [get_benchmark(name) for name in args.kernels.split(",")]
    recorder, unwrapped = None, []
    if args.trace:
        from spans import SUITE_SPANS, SpanRecorder, install

        recorder = SpanRecorder()
        unwrapped = install(recorder, SUITE_SPANS)

    cache = PersistentCache(args.cache) if args.cache else None
    timed = []
    batch_start = time.perf_counter()
    for bench in benches:
        start = time.perf_counter()
        try:
            program = bench.parse_synth()
            model = make_cost_model("flops", dim_map=bench.dim_map)
            result = superoptimize_program(program, cost_model=model, cache=cache)
        except Exception as exc:  # noqa: BLE001 — one failing kernel is a result, not a crash
            result = exc
        timed.append((bench, result, time.perf_counter() - start))
    if cache is not None:
        cache.save()
    batch_s = time.perf_counter() - batch_start
    spans = None
    if recorder is not None:
        from spans import wrapper_cost_s

        spans = dict(recorder.snapshot(), wrapper_cost_s=wrapper_cost_s())

    flops = make_cost_model("flops")
    rows = [_row(bench, result, seconds, flops) for bench, result, seconds in timed]
    args.out.write_text(
        json.dumps({"batch_s": batch_s, "rows": rows, "spans": spans, "unwrapped": unwrapped})
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
