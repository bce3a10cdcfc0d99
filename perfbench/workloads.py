"""The benchmark's fixed inputs: kernel sets and the serving traffic mix.

Kernel names refer to the paper's suite (Tables I and II) in
``repro.bench.suite``; the lists keep table order.  Three suite kernels are
left out of every workload because one cold synthesis of each takes longer
than the per-run budget allows (seconds on a 2-CPU x86 host, one kernel per
fresh interpreter): ``vec_lerp`` (69 s), ``synth_5`` (12 s) and
``max_stack`` (12 s).  See README.md.
"""

from __future__ import annotations

import itertools
import random

#: The cold workload: every suite kernel but the three above, in table
#: order, in one pass.
SUITE_COLD = (
    "diag_dot", "elem_square", "log_exp_1", "log_exp_2", "mat_vec_prod",
    "dot_trans", "scalar_sum", "euclidian_dist", "common_factor", "inner_prod",
    "scale_dot", "reshape_dot", "dot_trans_2", "power_neg", "sum_sum",
    "sum_stack", "sum_diag_dot", "trace_dot", "reorder_dot",
    "synth_1", "synth_2", "synth_3", "synth_4", "synth_6", "synth_7", "synth_8",
    "synth_9", "synth_10", "synth_11", "synth_12",
)

#: Kernels whose DFS searches below the root: solver and base-case matching.
SUITE_SEARCH = ("diag_dot", "sum_diag_dot", "synth_1", "synth_11", "synth_12")

#: Kernels the DFS settles at the root node: enumeration and symbolic
#: execution do the work, the solver none.
SUITE_ENUM = tuple(name for name in SUITE_COLD if name not in SUITE_SEARCH)

#: The cold workload's report splits its batch time over these two sets.
COLD_SUBSETS = {"root_settled": SUITE_ENUM, "searched": SUITE_SEARCH}

#: The warm workload re-runs the search kernels plus the Table II
#: enumeration kernels, in table order, so its per-kernel times compare one
#: to one with the cold workload's.  The set is cut to fit two warm passes
#: in one run; it keeps both cache paths: solver hits and library restores.
SUITE_WARM = (
    "diag_dot", "sum_diag_dot",
    "synth_1", "synth_2", "synth_3", "synth_4", "synth_6", "synth_7", "synth_8",
    "synth_9", "synth_10", "synth_11", "synth_12",
)

SUITES = {"suite-cold": SUITE_COLD, "suite-warm": SUITE_WARM}

_SQ = (384, 384)

#: Serving patterns: (name, source, request shapes for dims (m, n), timing
#: shapes), most popular first: the three patterns of the 14-kernel batch
#: of ``benchmarks/bench_parallel.py``, ordered by their kernel count there
#: (matmul 6, inner product 6, exp-log 2), then twelve cheap Table I/II
#: kernels.  Every request dimension is at least 3 and at most 8, so every
#: shape variant of a pattern shrinks to the same synthesis problem.
SERVE_PATTERNS = (
    ("matmul", "np.dot(A, B)",
     lambda m, n: {"A": (m, n), "B": (n, m)}, {"A": _SQ, "B": _SQ}),
    ("inner", "np.sum(A * B)",
     lambda m, n: {"A": (m, n), "B": (m, n)}, {"A": _SQ, "B": _SQ}),
    ("exp_log", "np.exp(np.log(A + B))",
     lambda m, n: {"A": (m, n), "B": (m, n)}, {"A": _SQ, "B": _SQ}),
    ("elem_square", "np.power(A, 2)", lambda m, n: {"A": (m, n)}, {"A": _SQ}),
    ("power_neg", "np.power(A, -1)", lambda m, n: {"A": (m, n)}, {"A": _SQ}),
    ("log_exp_2", "np.exp(np.log(A) - np.log(B))",
     lambda m, n: {"A": (m, n), "B": (m, n)}, {"A": _SQ, "B": _SQ}),
    ("mat_vec_prod", "np.sum(A * x, axis=1)",
     lambda m, n: {"A": (m, n), "x": (n,)}, {"A": (512, 512), "x": (512,)}),
    ("dot_trans", "np.dot(A.T, x.T)",
     lambda m, n: {"A": (n, m), "x": (n,)}, {"A": (512, 512), "x": (512,)}),
    ("scalar_sum", "np.sum(A * x, axis=0)",
     lambda m, n: {"A": (m, n), "x": (n,)}, {"A": (512, 512), "x": (512,)}),
    ("common_factor", "A * B + C * B",
     lambda m, n: {"A": (n,), "B": (n,), "C": (n,)},
     {"A": (1 << 16,), "B": (1 << 16,), "C": (1 << 16,)}),
    ("dot_trans_2", "np.transpose(np.transpose(A))", lambda m, n: {"A": (m, n)}, {"A": _SQ}),
    ("sum_sum", "np.sum(np.sum(A, axis=0), axis=0)", lambda m, n: {"A": (m, n)}, {"A": _SQ}),
    ("trace_dot", "np.trace(A @ B.T)",
     lambda m, n: {"A": (m, n), "B": (m, n)}, {"A": (384, 512), "B": (384, 512)}),
    ("synth_2", "A + B - A - A + B * B - B",
     lambda m, n: {"A": (m, n), "B": (m, n)}, {"A": _SQ, "B": _SQ}),
    ("synth_8", "A * B + A * B",
     lambda m, n: {"A": (m, n), "B": (m, n)}, {"A": _SQ, "B": _SQ}),
)

#: Request dims: the first sighting of a pattern uses the first pair.
SERVE_DIMS = ((3, 4), (4, 6), (5, 3), (6, 8), (8, 5))

#: Zipf exponent of the pattern popularity.  An assumption: no traffic
#: record in the repository gives the popularity of the Table I/II patterns.
ZIPF_S = 1.1

#: The request kind mix, in request counts of the daemon traffic that
#: ``benchmarks/bench_parallel.py`` records: a cold 14-kernel batch (3 first
#: sightings and 11 shape variants of them), the same 14 kernels again, and
#: the 14 renamed.  Beyond the first sightings that is 14 repeats, 14
#: renames and 11 reshapes.
REPEAT, RENAME, RESHAPE = "repeat", "rename", "reshape"
KIND_WEIGHTS = ((REPEAT, 14), (RENAME, 14), (RESHAPE, 11))


def request_stream(seed: int):
    """Endless seeded request stream of ``(index, pattern, name, shapes)``.

    The first ``len(SERVE_PATTERNS)`` requests are every pattern's first
    sighting in table order, so each run synthesizes the same problems in
    the same order.  After that, the seed draws patterns from a Zipf law
    over the table order; a request repeats the first sighting (a store
    hit), renames it (a rule-cache or pattern hit), or changes its shapes
    (the same, through another content key).
    """
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(SERVE_PATTERNS))]
    kinds = [k for k, _ in KIND_WEIGHTS]
    kind_weights = [w for _, w in KIND_WEIGHTS]
    index = itertools.count()
    for name, _source, shapes, _timing in SERVE_PATTERNS:
        yield next(index), name, name, shapes(*SERVE_DIMS[0])
    while True:
        name, _source, shapes, _timing = rng.choices(SERVE_PATTERNS, weights)[0]
        kind = rng.choices(kinds, kind_weights)[0]
        if kind == REPEAT:
            yield next(index), name, name, shapes(*SERVE_DIMS[0])
        elif kind == RENAME:
            yield next(index), name, f"{name}_v{rng.randrange(8)}", shapes(*SERVE_DIMS[0])
        else:
            dims = SERVE_DIMS[1 + rng.randrange(len(SERVE_DIMS) - 1)]
            yield next(index), name, name, shapes(*dims)
