"""Per-packet service-time construction from MAC/PHY timing.

A packet occupies the server for a total duration assembled from fixed
timing components (bus load, MAC access, frame transmission, ACK or ACK
timeout) and the number of transmission attempts it needs.  Attempts
follow a truncated geometric law in the single-attempt error rate, which
yields a small discrete service-time distribution with an explicit MGF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import LinkConfig

__all__ = [
    "TimingConstants",
    "ServiceComponents",
    "ServiceOutcome",
    "ServiceDistribution",
    "service_components",
    "delivered_duration",
    "dropped_duration",
    "attempt_pmf",
    "service_distribution",
]

# exp() overflow guard for MGF evaluation; float64 overflows near exp(709)
_MGF_EXPONENT_LIMIT = 700.0


@dataclass(frozen=True)
class TimingConstants:
    """Fixed per-attempt timing, all in ms except byte/kbps fields."""

    t_spi: float = 0.5            # one-time bus load per packet
    t_tr: float = 0.224           # radio turnaround
    t_bo: float = 5.28            # mean CSMA backoff
    t_ack: float = 1.96           # ACK reception
    t_wait_ack: float = 8.192     # ACK timeout on a failed attempt
    frame_overhead: int = 17      # non-payload frame bytes
    phy_rate: float = 250.0       # radio bit rate, kbit/s == bits/ms

    def __post_init__(self) -> None:
        for name in ("t_spi", "t_tr", "t_bo", "t_ack", "t_wait_ack"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.frame_overhead < 0:
            raise ValueError("frame_overhead must be >= 0")
        if self.phy_rate <= 0.0:
            raise ValueError("phy_rate must be > 0")


@dataclass(frozen=True)
class ServiceComponents:
    """Durations of one attempt, ms."""

    t_mac: float    # channel access: turnaround + backoff
    t_frame: float  # on-air frame time
    t_succ: float   # successful attempt: access + frame + ACK
    t_fail: float   # failed attempt: access + frame + ACK timeout
    t_retry: float  # retry spacing + failed attempt


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


def attempt_pmf(p_e: float, n_max_tries: int) -> tuple[np.ndarray, float]:
    """Truncated geometric attempt law.

    Returns (probs, drop_prob) where probs[k-1] = (1-p_e)*p_e**(k-1) is the
    probability of delivery on attempt k and drop_prob = p_e**n_max_tries.
    """
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"p_e must be in [0, 1], got {p_e}")
    if n_max_tries < 1:
        raise ValueError(f"n_max_tries must be >= 1, got {n_max_tries}")
    k = np.arange(1, n_max_tries + 1)
    probs = (1.0 - p_e) * p_e ** (k - 1.0)
    return probs, float(p_e**n_max_tries)


@dataclass(frozen=True)
class ServiceOutcome:
    """One atom of the service-time distribution."""

    duration: float     # ms of server occupancy
    probability: float
    attempt: int        # attempts consumed (== n_max_tries when dropped)
    delivered: bool


@dataclass(frozen=True)
class ServiceDistribution:
    """Discrete per-packet service-time law: N delivery atoms plus one drop atom."""

    outcomes: tuple[ServiceOutcome, ...]
    p_e: float
    n_max_tries: int

    def __post_init__(self) -> None:
        total = sum(o.probability for o in self.outcomes)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {total}, expected 1")
        delivered = [o for o in self.outcomes if o.delivered]
        dropped = [o for o in self.outcomes if not o.delivered]
        if len(dropped) != 1:
            raise ValueError("distribution must contain exactly one drop outcome")
        durations = [o.duration for o in delivered]
        if any(b <= a for a, b in zip(durations, durations[1:])):
            raise ValueError("delivered durations must increase with attempt count")

    @property
    def drop_probability(self) -> float:
        return next(o.probability for o in self.outcomes if not o.delivered)

    @property
    def max_duration(self) -> float:
        return max(o.duration for o in self.outcomes)

    def mean(self) -> float:
        return sum(o.duration * o.probability for o in self.outcomes)

    def variance(self) -> float:
        m = self.mean()
        return sum((o.duration - m) ** 2 * o.probability for o in self.outcomes)

    def mgf(self, theta: float) -> float:
        """E[exp(theta * T)] over all outcomes including the drop atom."""
        if theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {theta}")
        if theta * self.max_duration > _MGF_EXPONENT_LIMIT:
            raise OverflowError(
                f"theta * max duration = {theta * self.max_duration:.3g} exceeds "
                f"{_MGF_EXPONENT_LIMIT}; MGF would overflow"
            )
        return float(sum(o.probability * math.exp(theta * o.duration) for o in self.outcomes))

    def sample_many(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised draw of n outcomes by inverse CDF: (attempts, durations, delivered)."""
        cum = np.cumsum([o.probability for o in self.outcomes])
        cum[-1] = 1.0
        durations = np.array([o.duration for o in self.outcomes])
        attempts = np.array([o.attempt for o in self.outcomes])
        delivered = np.array([o.delivered for o in self.outcomes])
        idx = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(cum) - 1)
        return attempts[idx], durations[idx], delivered[idx]


def service_distribution(cfg: LinkConfig, tc: TimingConstants, p_e: float) -> ServiceDistribution:
    """Build the full service-time law for a link operating point."""
    comps = service_components(cfg, tc)
    probs, drop_prob = attempt_pmf(p_e, cfg.n_max_tries)
    outcomes = [
        ServiceOutcome(
            duration=delivered_duration(k, comps, tc.t_spi),
            probability=float(probs[k - 1]),
            attempt=k,
            delivered=True,
        )
        for k in range(1, cfg.n_max_tries + 1)
    ]
    outcomes.append(
        ServiceOutcome(
            duration=dropped_duration(comps, tc.t_spi, cfg.n_max_tries),
            probability=drop_prob,
            attempt=cfg.n_max_tries,
            delivered=False,
        )
    )
    return ServiceDistribution(outcomes=tuple(outcomes), p_e=p_e, n_max_tries=cfg.n_max_tries)
