"""Black-box instrumentation and the fast-forward power cache.

Solvers in this library treat their inputs as black boxes: the only allowed
operations are evaluation of the map or its inverse at chosen points, plus
exact rational arithmetic.  :class:`InstrumentedOracle` wraps any
automorphism and counts those evaluations without changing any result.

The fast-forward cost model charges one step for evaluating g^(2^k) at a
point, independent of k.  Orbit location in fast-forward mode
(``orbit_locate`` and :func:`measure_locate`) realizes it for
piecewise-linear maps without building g^(2^k): each step is one orbit walk
(``_walk``) of 2^k steps, which takes translation pieces in closed form at
once and other pieces after 16 steps.  Counts are the cost model's (one per
step, whatever it costs inside); wall time is that crossing plus O(k)
exact-power operations per step.  :class:`FastForwardCache` builds the
explicit powers g^(2^k) on demand, for measuring their size; no evaluation
uses them.
"""

from __future__ import annotations

from fractions import Fraction

from .automorphism import PLAutomorphism, _Record, _set, power
from .rational import format_rational
from .terrain import support_decompose


class CallCounter(_Record):
    """Tally of black-box operations during one evaluation session."""

    __slots__ = _fields = ("forward", "inverse", "ff_steps")
    # counts are mutable, and so unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, forward: int = 0, inverse: int = 0, ff_steps: int = 0):
        self.forward, self.inverse, self.ff_steps = forward, inverse, ff_steps

    @property
    def oracle_calls(self) -> int:
        return self.forward + self.inverse


class InstrumentedOracle(_Record):
    """Transparent counting wrapper around an automorphism.

    Counter updates are plain int increments; confine one oracle to one
    thread (or guard it externally) when evaluating concurrently.
    """

    __slots__ = _fields = ("inner", "forward_count", "inverse_count")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, inner, forward_count: int = 0, inverse_count: int = 0):
        self.inner, self.forward_count, self.inverse_count = inner, forward_count, inverse_count

    def forward(self, q: Fraction) -> Fraction:
        self.forward_count += 1
        return self.inner.forward(q)

    def backward(self, q: Fraction) -> Fraction:
        self.inverse_count += 1
        return self.inner.backward(q)

    __call__ = forward

    def reset(self):
        self.forward_count = 0
        self.inverse_count = 0

    @property
    def counts(self) -> tuple:
        return (self.forward_count, self.inverse_count)


def wrap(f) -> InstrumentedOracle:
    """Wrap an automorphism for evaluation counting; counters start at 0."""
    return InstrumentedOracle(f)


class FastForwardCache:
    """Explicit powers g^(2^k) and g^(-2^k) of a piecewise-linear map.

    ``power_of_two(k)`` builds the explicit PL power on demand (about
    ``3 * 2^k`` knots on a generic map) and keeps no copy; ``depth`` is the
    largest such k asked for, or the construction depth.  Fast-forward
    location does not use it: its steps are orbit walks of g (see the module
    docstring).
    """

    def __init__(self, base: PLAutomorphism, depth: int = 0):
        if not isinstance(base, PLAutomorphism):
            raise TypeError("fast-forward cache requires a piecewise-linear base")
        self.base = base
        self.depth = depth

    def power_of_two(self, k: int) -> PLAutomorphism:
        """g^(2^k) as an exact piecewise-linear map."""
        self.depth = max(self.depth, k)
        return power(self.base, 1 << k)

    def inverse_power_of_two(self, k: int) -> PLAutomorphism:
        return power(self.base, -(1 << k))


def build_cache(g: PLAutomorphism, depth: int = 0) -> FastForwardCache:
    """Powers g^(2^k) of g on demand, declared to depth ``depth``; nothing is precomputed."""
    if depth < 0:
        raise ValueError("cache depth must be nonnegative")
    return FastForwardCache(g, depth)


class CostReport(_Record):
    """Outcome of one instrumented orbit location."""

    __slots__ = _fields = ("mode", "index", "oracle_calls", "ff_steps")

    def __init__(self, mode: str, index: int, oracle_calls: int, ff_steps: int):
        _set(self, "mode", mode)
        _set(self, "index", index)
        _set(self, "oracle_calls", oracle_calls)
        _set(self, "ff_steps", ff_steps)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "index": self.index,
            "oracle_calls": self.oracle_calls,
            "ff_steps": self.ff_steps,
        }


def measure_locate(g: PLAutomorphism, alpha: Fraction, gamma: Fraction,
                   mode: str = "linear") -> CostReport:
    """Run orbit location under instrumentation and report exact counts.

    Raises ValueError unless alpha and gamma lie in one support component of
    g; without that check the walk would run to its step cap.
    """
    from .conjugacy import orbit_locate

    where = support_decompose(g).locate
    if where(alpha) != where(gamma):
        raise ValueError(f"{format_rational(alpha)} and {format_rational(gamma)} lie in "
                         "different elements of the terrain of g")
    counter = CallCounter()
    location = orbit_locate(g, alpha, gamma, mode=mode, counter=counter)
    return CostReport(mode=mode, index=location.index,
                      oracle_calls=counter.oracle_calls, ff_steps=counter.ff_steps)
