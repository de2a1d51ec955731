"""Per-packet service-time construction from MAC/PHY timing.

A packet occupies the server for a total duration assembled from fixed
timing components (bus load, MAC access, frame transmission, ACK or ACK
timeout) and the number of transmission attempts it needs.  Attempts
follow a truncated geometric law in the single-attempt error rate, which
yields a small discrete service-time distribution with an explicit MGF.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate

from ._record import Frozen, set_field
from .empirical import _MGF_EXPONENT_LIMIT, LinkConfig, TimingConstants

TYPE_CHECKING = False  # typing.TYPE_CHECKING for type checkers, without importing typing
if TYPE_CHECKING:
    from typing import Callable, Sequence

    import numpy as np

# TimingConstants lives in the numpy-free empirical module and is re-exported here
__all__ = [
    "TimingConstants",
    "ServiceComponents",
    "ServiceDistribution",
    "service_components",
    "delivered_duration",
    "dropped_duration",
    "attempt_pmf",
    "service_distribution",
]


class ServiceComponents(Frozen):
    """Durations of one attempt, ms."""

    __slots__ = ("t_mac", "t_frame", "t_succ", "t_fail", "t_retry")

    def __init__(
        self,
        t_mac: float,    # channel access: turnaround + backoff
        t_frame: float,  # on-air frame time
        t_succ: float,   # successful attempt: access + frame + ACK
        t_fail: float,   # failed attempt: access + frame + ACK timeout
        t_retry: float,  # retry spacing + failed attempt
    ) -> None:
        set_field(self, "t_mac", t_mac)
        set_field(self, "t_frame", t_frame)
        set_field(self, "t_succ", t_succ)
        set_field(self, "t_fail", t_fail)
        set_field(self, "t_retry", t_retry)


def service_components(cfg: LinkConfig, tc: TimingConstants) -> ServiceComponents:
    t_mac = tc.t_tr + tc.t_bo
    t_frame = (tc.frame_overhead + cfg.l_d) * 8.0 / tc.phy_rate
    t_succ = t_mac + t_frame + tc.t_ack
    t_fail = t_mac + t_frame + tc.t_wait_ack
    t_retry = cfg.d_retry + t_fail
    return ServiceComponents(t_mac=t_mac, t_frame=t_frame, t_succ=t_succ,
                             t_fail=t_fail, t_retry=t_retry)


def delivered_duration(k: int, comps: ServiceComponents, t_spi: float) -> float:
    """Total service time of a packet delivered on attempt k (1-based)."""
    if k < 1:
        raise ValueError(f"attempt index must be >= 1, got {k}")
    return t_spi + comps.t_succ + (k - 1) * comps.t_retry


def dropped_duration(comps: ServiceComponents, t_spi: float, n_max_tries: int) -> float:
    """Total server occupancy of a packet that fails all attempts."""
    if n_max_tries < 1:
        raise ValueError(f"n_max_tries must be >= 1, got {n_max_tries}")
    return t_spi + comps.t_fail + (n_max_tries - 1) * comps.t_retry


def attempt_pmf(p_e: float, n_max_tries: int) -> tuple[tuple[float, ...], float]:
    """Truncated geometric attempt law.

    Returns (probs, drop_prob) where probs[k-1] = (1-p_e)*p_e**(k-1) is the
    probability of delivery on attempt k and drop_prob = p_e**n_max_tries.
    """
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"p_e must be in [0, 1], got {p_e}")
    if n_max_tries < 1:
        raise ValueError(f"n_max_tries must be >= 1, got {n_max_tries}")
    q = 1.0 - p_e
    return tuple(q * p_e ** (k - 1.0) for k in range(1, n_max_tries + 1)), float(p_e**n_max_tries)


class ServiceDistribution(Frozen):
    """Discrete per-packet service-time law: n_max_tries delivery atoms, then one drop atom.

    durations[k - 1] and probs[k - 1] are the server occupancy (ms) and
    the probability of delivery on attempt k; the last entry of each is
    the drop atom, which uses all n_max_tries attempts.  Both are stored
    as tuples of Python floats, the law's one copy; the numpy arrays the
    simulator draws from are built from them on first use.  Laws compare
    and hash by identity.
    """

    # __dict__ holds the cached properties and _positive_atoms
    __slots__ = ("durations", "probs", "p_e", "n_max_tries", "__dict__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, durations: Sequence[float], probs: Sequence[float], p_e: float,
                 n_max_tries: int) -> None:
        durations, probs = tuple(map(float, durations)), tuple(map(float, probs))
        for name, values in (("durations", durations), ("probs", probs)):
            if len(values) != n_max_tries + 1:
                raise ValueError(f"{name} must hold n_max_tries + 1 = {n_max_tries + 1} "
                                 f"atoms, got {len(values)}")
        total = 0.0
        for p in probs:  # left to right, as np.cumsum adds
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {total}, expected 1")
        if any(b <= a for a, b in zip(durations, durations[1:-1])):
            raise ValueError("delivered durations must increase with attempt count")
        set_field(self, "durations", durations)
        set_field(self, "probs", probs)
        set_field(self, "p_e", p_e)
        set_field(self, "n_max_tries", n_max_tries)
        # not a field (__dict__ holds it): the atoms of positive probability, in atom
        # order, as (duration, probability); mgf sums them and max_duration reads them
        set_field(self, "_positive_atoms", tuple((d, p) for d, p in zip(durations, probs) if p > 0.0))

    @property
    def drop_probability(self) -> float:
        return self.probs[-1]

    @cached_property
    def max_duration(self) -> float:
        """The longest duration of positive probability: the one the MGF's range depends on."""
        return max(d for d, _ in self._positive_atoms)

    def _expectation(self, f: Callable[[float], float]) -> float:
        """E[f(T)] over all atoms.

        The terms are added left to right in a Python loop, so that the
        result is the same float whatever order numpy or the
        interpreter's sum() would add them in.
        """
        total = 0.0
        for d, p in zip(self.durations, self.probs):
            total += f(d) * p
        return total

    def mean(self) -> float:
        return self._expectation(lambda d: d)

    def variance(self) -> float:
        m = self.mean()
        return self._expectation(lambda d: (d - m) ** 2)

    def mgf(self, theta: float) -> float:
        """E[exp(theta * T)], summed over the atoms of positive probability, the drop atom among them.

        An atom of probability 0 adds nothing, and leaving it out keeps
        exp() of its duration, which may overflow, out of the sum.
        """
        if theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {theta}")
        if theta * self.max_duration > _MGF_EXPONENT_LIMIT:
            raise OverflowError(
                f"theta * max duration = {theta * self.max_duration:.3g} exceeds "
                f"{_MGF_EXPONENT_LIMIT}; MGF would overflow"
            )
        # _expectation's left-to-right sum, without a call per atom
        total = 0.0
        for d, p in self._positive_atoms:
            total += math.exp(theta * d) * p
        return total

    def tilted_moments(self, theta: float) -> tuple[float, float]:
        """Mean and variance of T under the law tilted by exp(theta * T): the slope and curvature of log mgf.

        Each atom of positive probability weighs p * exp(theta * (d - max_duration)),
        which is at most p, so no exp() overflows whatever theta; the common
        factor cancels.  The variance is taken about the mean, in a second
        pass, so that it does not cancel where the tilted law is nearly one atom.
        """
        top = self.max_duration
        weights = [(d, math.exp(theta * (d - top)) * p) for d, p in self._positive_atoms]
        total = first = 0.0
        for d, w in weights:
            total += w
            first += w * d
        mean = first / total
        second = 0.0
        for d, w in weights:
            second += w * (d - mean) ** 2
        return mean, second / total

    # numpy views of the atoms, for the simulator: built on first use, read-only

    @cached_property
    def duration_array(self) -> np.ndarray:
        """durations as a numpy array."""
        return _read_only(self.durations)

    @cached_property
    def attempts(self) -> np.ndarray:
        """Attempts each atom uses: 1..n_max_tries, then n_max_tries for the drop."""
        return _read_only((*range(1, self.n_max_tries + 1), self.n_max_tries))

    @cached_property
    def delivered(self) -> np.ndarray:
        """True for the delivery atoms, False for the drop atom."""
        return _read_only((True,) * self.n_max_tries + (False,))

    def draw_atoms(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Atom index of n outcomes drawn by inverse CDF from rng.random(n).

        A draw u in [0, 1) takes atom j, the number of partial sums
        probs[0] + ... + probs[i], i < K - 1, that are <= u.  The full sum
        is 1 > u and never counts, even where rounding lifts an earlier
        partial sum above 1.  The partial sums are added left to right,
        as np.cumsum adds them.  The count is kept in the narrowest
        unsigned type that holds n_max_tries, a byte for any practical law.
        Calls one after another draw what one call for all of them would.
        """
        import numpy as np

        u = rng.random(n)
        idx = np.zeros(n, dtype=np.min_scalar_type(self.n_max_tries))
        hit = np.empty(n, dtype=bool)
        for c in accumulate(self.probs[:-1]):
            np.greater_equal(u, c, out=hit)
            idx += hit.view(np.uint8)
        return idx

    def sample_many(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised draw of n outcomes: (attempts, durations, delivered), by draw_atoms."""
        import numpy as np

        idx = self.draw_atoms(rng, n)
        atom = idx.astype(np.intp)  # take would widen a narrow index on each call
        return self.attempts.take(atom), self.duration_array.take(atom), idx < self.n_max_tries


def _read_only(values: tuple) -> np.ndarray:
    import numpy as np

    array = np.array(values)
    array.flags.writeable = False
    return array


def service_distribution(cfg: LinkConfig, tc: TimingConstants, p_e: float) -> ServiceDistribution:
    """Build the full service-time law for a link operating point.

    Raises ValueError where a service time or its square, which the
    variance and the mean delay need, leaves the float range.
    """
    comps = service_components(cfg, tc)
    probs, drop_prob = attempt_pmf(p_e, cfg.n_max_tries)
    durations = [delivered_duration(k, comps, tc.t_spi) for k in range(1, cfg.n_max_tries + 1)]
    durations.append(dropped_duration(comps, tc.t_spi, cfg.n_max_tries))
    longest = max(durations)
    if not math.isfinite(longest * longest):
        raise ValueError(f"link l_d, d_retry and n_max_tries give service times up to {longest:.6g} ms, "
                         "whose square leaves the float range")
    return ServiceDistribution(durations=durations, probs=(*probs, drop_prob),
                               p_e=p_e, n_max_tries=cfg.n_max_tries)
