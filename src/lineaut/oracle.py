"""Black-box instrumentation and the fast-forward power cache.

Solvers in this library treat their inputs as black boxes: the only allowed
operations are evaluation of the map or its inverse at chosen points, plus
exact rational arithmetic.  :class:`InstrumentedOracle` wraps any
automorphism and counts those evaluations without changing any result.

The fast-forward cost model charges one step for evaluating g^(2^k) at a
point, independent of k.  :class:`FastForwardCache` realizes it for
piecewise-linear maps by precomputing powers by repeated squaring; internal
piecewise-linear arithmetic is excluded from counts, only cache applications
are charged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .automorphism import PLAutomorphism, compose
from .terrain import support_decompose


@dataclass
class CallCounter:
    """Tally of black-box operations during one evaluation session."""

    forward: int = 0
    inverse: int = 0
    ff_steps: int = 0

    @property
    def oracle_calls(self) -> int:
        return self.forward + self.inverse


@dataclass
class InstrumentedOracle:
    """Transparent counting wrapper around an automorphism.

    Counter updates are plain int increments; confine one oracle to one
    thread (or guard it externally) when evaluating concurrently.
    """

    inner: object
    forward_count: int = 0
    inverse_count: int = 0

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
    """Powers g^(2^k) and g^(-2^k) of a piecewise-linear map, grown on demand.

    ``powers[k+1] = powers[k] * powers[k]`` by exact composition.  Applying a
    cached power to a point counts as one fast-forward step when a counter is
    supplied.  Growth is synchronized, so caches may be shared across
    threads.
    """

    def __init__(self, base: PLAutomorphism, depth: int = 0):
        if not isinstance(base, PLAutomorphism):
            raise TypeError("fast-forward cache requires a piecewise-linear base")
        self.base = base
        self._powers = [base]
        self._inverse_powers = [base._inverse]
        self._lock = threading.Lock()
        for k in range(depth):
            self.power_of_two(k + 1)

    def _grow(self, powers, k):
        with self._lock:
            while len(powers) <= k:
                top = powers[-1]
                powers.append(compose(top, top))
        return powers[k]

    def power_of_two(self, k: int) -> PLAutomorphism:
        """g^(2^k) as an exact piecewise-linear map."""
        if k < len(self._powers):
            return self._powers[k]
        return self._grow(self._powers, k)

    def inverse_power_of_two(self, k: int) -> PLAutomorphism:
        if k < len(self._inverse_powers):
            return self._inverse_powers[k]
        return self._grow(self._inverse_powers, k)

    @property
    def depth(self) -> int:
        return len(self._powers) - 1

    def apply(self, q: Fraction, k: int, counter: CallCounter = None) -> Fraction:
        """One fast-forward step: image of q under g^(2^k)."""
        if counter is not None:
            counter.ff_steps += 1
        return self.power_of_two(k).forward(q)

    def apply_inverse(self, q: Fraction, k: int, counter: CallCounter = None) -> Fraction:
        if counter is not None:
            counter.ff_steps += 1
        return self.inverse_power_of_two(k).forward(q)


def build_cache(g: PLAutomorphism, depth: int = 0) -> FastForwardCache:
    """Precompute depth+1 powers of two of g by repeated squaring."""
    if depth < 0:
        raise ValueError("cache depth must be nonnegative")
    return FastForwardCache(g, depth)


@dataclass(frozen=True)
class CostReport:
    """Outcome of one instrumented orbit location."""

    mode: str
    index: int
    oracle_calls: int
    ff_steps: int

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
        raise ValueError(f"{alpha} and {gamma} lie in different elements of the terrain of g")
    counter = CallCounter()
    location = orbit_locate(g, alpha, gamma, mode=mode, counter=counter)
    return CostReport(mode=mode, index=location.index,
                      oracle_calls=counter.oracle_calls, ff_steps=counter.ff_steps)
