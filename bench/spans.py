"""Spans recorded from the benchmark's own calls into lineaut's layers.

A span is ``(op, name, start, end, n)``: the operation it belongs to, the
layer call, its perf_counter interval and the number of items it covered
(sample points for bulk evaluation, 1 otherwise).  Spans stay in memory
until the run ends.  The untraced run uses :data:`NULL`, which records
nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.op = 0

    def record(self, name, start, end, n=1):
        self.spans.append((self.op, name, start, end, n))

    @contextmanager
    def span(self, name, n=1):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.op, name, start, time.perf_counter(), n))


class _NullTracer:
    enabled = False
    op = 0

    def record(self, name, start, end, n=1):
        pass

    def span(self, name, n=1):
        return _NO_SPAN


NULL = _NullTracer()

# per-layer metric -> (span name, unit, scale); the value is the total span
# time over the total items (points for bulk evaluation, else calls), a mean
# because several spans mix calls of very different sizes
TIMED = {
    "automorphism.forward_us": ("automorphism.forward", "us", 1e6),
    "automorphism.compose_us": ("automorphism.compose", "us", 1e6),
    "automorphism.meet_join_us": ("automorphism.meet_join", "us", 1e6),
    "automorphism.power_ms": ("automorphism.power", "ms", 1e3),
    "terrain.decompose_us": ("terrain.decompose", "us", 1e6),
    "terrain.realize_us": ("terrain.realize", "us", 1e6),
    "conjugacy.solve_ms": ("conjugacy.solve", "ms", 1e3),
    "conjugacy.eval_us": ("conjugacy.eval", "us", 1e6),
    "oracle.locate_linear_us": ("oracle.locate_linear", "us", 1e6),
    "oracle.locate_ff_us": ("oracle.locate_ff", "us", 1e6),
    "oracle.ff_cache_build_ms": ("oracle.ff_cache_build", "ms", 1e3),
    "equations.xgx_solve_ms": ("equations.xgx_solve", "ms", 1e3),
    "equations.xgx_eval_us": ("equations.xgx_eval", "us", 1e6),
    "equations.root_solve_ms": ("equations.root_solve", "ms", 1e3),
    "equations.root_eval_us": ("equations.root_eval", "us", 1e6),
    "equations.commutator_solve_ms": ("equations.commutator_solve", "ms", 1e3),
    "equations.commutator_eval_us": ("equations.commutator_eval", "us", 1e6),
    "equations.word_solve_ms": ("equations.word_solve", "ms", 1e3),
    "equations.word_eval_us": ("equations.word_eval", "us", 1e6),
    "samples.default_samples_ms": ("samples.default_samples", "ms", 1e3),
}
CLI_COMMANDS = ("terrain", "eval", "conjugate", "solve-xgx", "solve-word", "root",
                "commutator", "enumerate-terrains", "realize", "measure")
for _cmd in CLI_COMMANDS:
    _key = _cmd.replace("-", "_")
    TIMED[f"cli.{_key}_ms"] = (f"cli.{_cmd}", "ms", 1e3)


def layer_times(spans, factors) -> dict:
    """Per-layer timing metrics from a list of spans; every layer must occur.
    Each span's time is scaled by its operation's host speed factor."""
    by_name = {}
    for op, name, start, end, n in spans:
        by_name.setdefault(name, []).append(((end - start) * factors[op], n))
    out = {}
    for metric, (name, unit, scale) in TIMED.items():
        rows = by_name.get(name)
        if not rows:
            raise RuntimeError(f"traced run recorded no {name!r} span")
        value = sum(d for d, _ in rows) / sum(n for _, n in rows)
        out[metric] = {"value": value * scale, "unit": unit}
    return out
