"""Independent correctness reference, code timing and statistics.

Everything here uses plain NumPy and the standard library, never the
program under test: an emitted program is checked by running its source
text next to the original source text on seeded inputs from the positive
box [0.5, 2), the domain the synthesizer verifies on.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Mapping, Sequence

import numpy as np

#: Relative tolerance of the output comparison.  The absolute tolerance
#: scales with the reference's magnitude, so sums of many positive terms and
#: outputs that cancel to near zero (``B*B - A``) are both judged fairly.
RTOL = 1e-7
ATOL_SCALE = 1e-9

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def make_inputs(shapes: Mapping[str, Sequence[int]], seed: int) -> dict[str, np.ndarray]:
    """Seeded float64 inputs drawn uniformly from [0.5, 2)."""
    rng = np.random.default_rng(seed)
    return {
        name: rng.uniform(0.5, 2.0, size=tuple(shape)) for name, shape in sorted(shapes.items())
    }


def original_callable(source: str) -> Callable[..., object]:
    """The original kernel, an expression over its input names."""
    code = compile(source, "<original>", "eval")

    def run(**inputs):
        return eval(code, {"np": np, **inputs})  # noqa: S307 — benchmark-owned source

    return run


def emitted_callable(source: str) -> Callable[..., object]:
    """The emitted kernel, a ``def`` whose parameters are the input names."""
    namespace: dict = {"np": np}
    exec(compile(source, "<emitted>", "exec"), namespace)  # noqa: S102
    functions = [v for k, v in namespace.items() if k != "np" and callable(v)]
    if len(functions) != 1:
        raise ValueError(f"emitted source defines {len(functions)} functions, expected 1")
    return functions[0]


def same_output(want, got) -> bool:
    want = np.asarray(want, dtype=float)
    got = np.asarray(got, dtype=float)
    if want.shape != got.shape:
        return False
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return bool(np.allclose(got, want, rtol=RTOL, atol=ATOL_SCALE * max(1.0, scale)))


def check_emitted(
    original_source: str,
    emitted_source: str,
    shapes: Mapping[str, Sequence[int]],
    seed: int,
) -> str | None:
    """None when the emitted program agrees with the original, else why not."""
    inputs = make_inputs(shapes, seed)
    with np.errstate(all="ignore"):
        want = original_callable(original_source)(**inputs)
        try:
            got = emitted_callable(emitted_source)(**inputs)
        except Exception as exc:  # noqa: BLE001 — any crash is a wrong program
            return f"emitted program raised {type(exc).__name__}: {exc}"
    if not same_output(want, got):
        return "emitted output differs from the original's"
    return None


def seconds_per_call(fn: Callable[[], object], min_sample_s: float = 0.005, samples: int = 5) -> float:
    """Best-of-``samples`` seconds per call, each sample at least ``min_sample_s``."""
    fn()
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_sample_s or loops >= 1 << 20:
            break
        loops *= 2
    best = elapsed / loops
    for _ in range(samples - 1):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def gen_speedup(
    original_source: str,
    emitted_source: str,
    shapes: Mapping[str, Sequence[int]],
    seed: int,
) -> float:
    """NumPy run time of the original over the emitted program."""
    inputs = make_inputs(shapes, seed)
    original = original_callable(original_source)
    emitted = emitted_callable(emitted_source)
    t_original = seconds_per_call(lambda: original(**inputs))
    t_emitted = seconds_per_call(lambda: emitted(**inputs))
    return t_original / t_emitted


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q`` quantile, or None unless at least
    :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def tail_stat(samples: Sequence[float], q: float) -> tuple[float, str]:
    """The ``q`` percentile where the samples support it, else their mean.

    Returns the value and its basis (``"p50"`` or ``"mean"``) so reports
    can say which one a ``*_pNN`` metric holds.
    """
    value = percentile(samples, q)
    if value is not None:
        return value, f"p{round(q * 100)}"
    return statistics.fmean(samples), "mean"


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 1.0
    return math.exp(statistics.fmean(math.log(v) for v in values))
