"""Stochastic delay bounds via min-plus envelopes.

Arrival processes get stochastic arrival curves (rate envelope alpha plus
an exponential or deterministic violation bound f); the retransmitting
server gets a latency-free rate service curve derived from the
service-time MGF.  Combining the two yields, for each target delay, a
tail-probability bound obtained from the Stieltjes convolution of the two
violation bounds, optimised over the free exponent theta.

Traffic volume is measured in bits; a packet contributes packet_bits at
its arrival instant.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import Frozen
from .gg1 import Overload
from .service_time import ServiceDistribution, _MGF_EXPONENT_LIMIT
from .traffic import OnOffTraffic, PeriodicTraffic, PoissonTraffic, TrafficSpec

__all__ = [
    "ArrivalCurve",
    "ServiceCurve",
    "DelayBound",
    "DelayCcdf",
    "Overload",
    "periodic_arrival_curve",
    "poisson_arrival_curve",
    "onoff_arrival_curve",
    "arrival_curve_for",
    "service_curve",
    "convolve_exponential_bounds",
    "optimize_delay_ccdf",
]


# decay rates this close are convolved with the equal-rates closed form
_EQUAL_RATES_REL = 1e-12
# np.exp against math.exp: |np.exp(y) - math.exp(y)| <= _EXP_REL * math.exp(y) + _EXP_ABS,
# four ulps of the result in the normal range and four of the smallest subnormal below it
_EXP_REL = 2.0**-50
_EXP_ABS = 2.0**-1072


class ArrivalCurve(Frozen):
    """Affine envelope rate*t + burst with violation bound exp(-decay*x).

    decay None means the envelope is deterministic (never violated).
    """

    __slots__ = ("rate", "burst", "decay")

    def __init__(
        self,
        rate: float,           # bits/ms
        burst: float,          # bits
        decay: float | None,   # 1/bits, None = deterministic
    ) -> None:
        self._set_fields(rate, burst, decay)

    @property
    def deterministic(self) -> bool:
        return self.decay is None


class ServiceCurve(Frozen):
    """Rate service curve R*t with violation bound exp(-theta*x/R)."""

    __slots__ = ("rate", "theta")

    def __init__(
        self,
        rate: float,   # bits/ms
        theta: float,  # 1/ms
    ) -> None:
        self._set_fields(rate, theta)

    @property
    def decay(self) -> float:
        return self.theta / self.rate


class DelayBound(Frozen):
    __slots__ = ("delay", "prob", "theta")

    def __init__(
        self,
        delay: float,          # ms
        prob: float,           # bound on P{delay exceeded}
        theta: float | None,   # optimal exponent, None when only the vacuous bound holds
    ) -> None:
        self._set_fields(delay, prob, theta)


class DelayCcdf(Frozen):
    """Optimised delay tail bound on a grid of target delays."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[DelayBound, ...]) -> None:
        self._set_fields(points)

    def delays(self) -> np.ndarray:
        return np.array([p.delay for p in self.points])

    def probs(self) -> np.ndarray:
        return np.array([p.prob for p in self.points])


# (rate in bits/ms, burst in bits, decay in 1/bits or None): an ArrivalCurve's fields
_Envelope = tuple[float, float, float | None]


def periodic_arrival_curve(packet_bits: float, period: float) -> ArrivalCurve:
    """Deterministic envelope of a periodic source: one packet burst plus mean rate."""
    if packet_bits <= 0.0:
        raise ValueError(f"packet_bits must be > 0, got {packet_bits}")
    if period <= 0.0:
        raise ValueError(f"period must be > 0, got {period}")
    return ArrivalCurve(*_periodic_envelope(packet_bits, period))


def _periodic_envelope(packet_bits: float, period: float) -> _Envelope:
    return packet_bits / period, packet_bits, None


def poisson_arrival_curve(rate: float, packet_bits: float, theta: float) -> ArrivalCurve:
    """Chernoff envelope of Poisson packet arrivals at the given exponent.

    The envelope rate (rate/theta) * (exp(theta*packet_bits) - 1) already
    accounts for whole packets arriving at single instants, so no burst
    term is needed.
    """
    if rate <= 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if packet_bits <= 0.0:
        raise ValueError(f"packet_bits must be > 0, got {packet_bits}")
    if theta <= 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    return ArrivalCurve(*_poisson_envelope(rate, packet_bits, theta))


def _poisson_envelope(rate: float, packet_bits: float, theta: float) -> _Envelope:
    return rate * math.expm1(theta * packet_bits) / theta, 0.0, theta


def onoff_arrival_curve(
    lam: float,
    mu: float,
    peak_rate: float,
    theta: float,
    packet_bits: float,
) -> ArrivalCurve:
    """Effective-bandwidth envelope of a two-state On-Off fluid source.

    lam is the On->Off transition rate, mu the Off->On rate, peak_rate r
    the emission rate while On (bits/ms).  The envelope rate is the
    Perron root of the exponentially tilted generator,

        rate(theta) = (theta*r - lam - mu
                       + sqrt((theta*r - lam + mu)^2 + 4*lam*mu)) / (2*theta),

    which runs from the mean rate r*mu/(lam+mu) at theta -> 0 up to the
    peak rate.  The fluid envelope holds for the emitted packet stream
    only after adding one packet of burst allowance, because a whole
    packet arrives the moment its fluid equivalent completes.
    """
    if lam <= 0.0 or mu <= 0.0:
        raise ValueError("lam and mu must be > 0")
    if peak_rate <= 0.0:
        raise ValueError(f"peak_rate must be > 0, got {peak_rate}")
    if theta <= 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    if packet_bits <= 0.0:
        raise ValueError(f"packet_bits must be > 0, got {packet_bits}")
    return ArrivalCurve(*_onoff_envelope(lam, mu, peak_rate, theta, packet_bits))


def _onoff_envelope(lam: float, mu: float, peak_rate: float, theta: float, packet_bits: float) -> _Envelope:
    tr = theta * peak_rate
    rate = (tr - lam - mu + math.sqrt((tr - lam + mu) ** 2 + 4.0 * lam * mu)) / (2.0 * theta)
    return rate, packet_bits, theta


def arrival_curve_for(spec: TrafficSpec, packet_bits: float, theta: float) -> ArrivalCurve:
    """Arrival curve of a traffic spec at the given exponent.

    The spec's own fields were checked when it was built; theta is not
    read for periodic traffic.
    """
    if packet_bits <= 0.0:
        raise ValueError(f"packet_bits must be > 0, got {packet_bits}")
    if theta <= 0.0 and not isinstance(spec, PeriodicTraffic):
        raise ValueError(f"theta must be > 0, got {theta}")
    return ArrivalCurve(*_envelope(spec, packet_bits, theta))


def _envelope(spec: TrafficSpec, packet_bits: float, theta: float) -> _Envelope:
    """arrival_curve_for's fields, without its checks or the ArrivalCurve."""
    if isinstance(spec, PeriodicTraffic):
        return _periodic_envelope(packet_bits, spec.t_pit)
    if isinstance(spec, PoissonTraffic):
        return _poisson_envelope(spec.rate, packet_bits, theta)
    if isinstance(spec, OnOffTraffic):
        return _onoff_envelope(spec.lam_on_off, spec.mu_off_on, spec.rate * packet_bits, theta, packet_bits)
    raise TypeError(f"unknown traffic spec {type(spec).__name__}")


def service_curve(dist: ServiceDistribution, packet_bits: float, theta: float) -> ServiceCurve:
    """Rate service curve R = packet_bits * theta / ln(MGF(theta))."""
    if theta <= 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    if packet_bits <= 0.0:
        raise ValueError(f"packet_bits must be > 0, got {packet_bits}")
    rate = _service_rate(dist, packet_bits, theta)
    if rate is None:
        raise ValueError("service-time MGF must exceed 1 for theta > 0")
    return ServiceCurve(rate=rate, theta=theta)


def _service_rate(dist: ServiceDistribution, packet_bits: float, theta: float) -> float | None:
    """The service curve's rate at theta; None where the MGF rounds to 1 (theta near 0)."""
    log_m = math.log(dist.mgf(theta))
    return packet_bits * theta / log_m if log_m > 0.0 else None


def convolve_exponential_bounds(a: float, b: float, x: float) -> float:
    """Tail 1 - conv(fbar, gbar)(x) for bounds exp(-a*x) and exp(-b*x).

    Closed form (a*exp(-b*x) - b*exp(-a*x)) / (a - b) for a != b,
    (1 + a*x)*exp(-a*x) for a == b, clamped to [0, 1].
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("decay rates must be > 0")
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    return _convolve(a, b, x)


def _convolve(a: float, b: float, x: float) -> float:
    """convolve_exponential_bounds without its argument checks."""
    if abs(a - b) <= _EQUAL_RATES_REL * max(a, b):
        c = 0.5 * (a + b)
        val = (1.0 + c * x) * math.exp(-c * x)
    else:
        val = (a * math.exp(-b * x) - b * math.exp(-a * x)) / (a - b)
    return 0.0 if val < 0.0 else 1.0 if 1.0 < val else val


# (service rate R, arrival burst, arrival decay or None when deterministic, service decay)
_Curves = tuple[float, float, float | None, float]


# why an exponent has no curves, as the overload message states it
_SERVICE_OVERFLOW = "the service-time MGF would leave exp()'s range"
_PACKET_OVERFLOW = "the MGF of one packet's bits would leave exp()'s range"
_MGF_FLAT = "the service-time MGF rounds to 1, so there is no service curve"
_ENVELOPE = "the arrival envelope exceeds the service curve"


def _curves_or_cause(
    traffic: TrafficSpec,
    dist: ServiceDistribution,
    packet_bits: float,
    theta: float,
) -> _Curves | str:
    """What the bound reads of the arrival and service curves at theta, or why theta is infeasible.

    theta is infeasible when the service-time MGF or, for Poisson traffic,
    the MGF of one packet's bits would leave exp()'s range, when theta is
    so small that the service-time MGF rounds to 1 (no service curve), or
    when the arrival envelope outruns the service curve.
    """
    if theta * dist.max_duration > _MGF_EXPONENT_LIMIT:
        return _SERVICE_OVERFLOW
    if isinstance(traffic, PoissonTraffic) and theta * packet_bits > _MGF_EXPONENT_LIMIT:
        return _PACKET_OVERFLOW
    rate = _service_rate(dist, packet_bits, theta)
    if rate is None:
        return _MGF_FLAT
    arrival_rate, burst, decay = _envelope(traffic, packet_bits, theta)
    if arrival_rate > rate:
        return _ENVELOPE
    return rate, burst, decay, theta / rate   # theta / rate is ServiceCurve.decay


def _stable_curves(
    traffic: TrafficSpec,
    dist: ServiceDistribution,
    packet_bits: float,
    theta: float,
) -> _Curves | None:
    """The curves at theta; None when theta is infeasible (see _curves_or_cause)."""
    curves = _curves_or_cause(traffic, dist, packet_bits, theta)
    return None if isinstance(curves, str) else curves


def _overload_message(
    traffic: TrafficSpec,
    dist: ServiceDistribution,
    packet_bits: float,
    grid: np.ndarray,
) -> str:
    """Why no exponent of the grid is stable: each cause with the exponents it refused."""
    refused: dict[str, list[float]] = {}
    for t in np.sort(grid).tolist():
        refused.setdefault(_curves_or_cause(traffic, dist, packet_bits, t), []).append(t)
    head = "no stable exponent in the theta grid; "
    if refused.keys() == {_ENVELOPE}:
        return head + "arrival envelope exceeds the service curve everywhere"
    if refused.keys() == {_MGF_FLAT}:
        # the MGF never decreases in theta, so it is 1 all the way up
        return head + (f"the service-time MGF rounds to 1 up to its largest exponent "
                       f"{grid.max():.3g}, so no exponent has a service curve")
    return head + "; ".join(
        (f"at exponent {ts[0]:.3g}" if len(ts) == 1
         else f"at {len(ts)} exponents from {ts[0]:.3g} to {ts[-1]:.3g}") + f", {cause}"
        for cause, ts in refused.items())


def _bound_prob(curves: _Curves | None, delay: float) -> float:
    """Bound on P{delay exceeded} from the curves at one theta; inf when theta is infeasible.

    The delay is the horizontal distance (burst + x) / R between the
    envelope raised by x bits and the service curve, so x = delay * R - burst.
    """
    if curves is None:
        return math.inf
    rate, burst, arrival_decay, service_decay = curves
    x = delay * rate - burst
    if x < 0.0:
        return 1.0
    if arrival_decay is None:
        # x >= 0, so the exponent is <= 0 and the bound already lies in [0, 1]
        return math.exp(-service_decay * x)
    return _convolve(arrival_decay, service_decay, x)


def _grid_minima(curves: Sequence[_Curves], delays: Sequence[float]) -> list[tuple[int, float]]:
    """For each delay, the index and value of the first smallest _bound_prob over curves.

    The same pair, value type included, as np.argmin over the full list of
    _bound_prob values, which is never built.  numpy fills the delays x
    curves matrix of bounds with _bound_prob's operations in its order,
    together with a bound on each cell's distance from the scalar value:
    np.exp and math.exp may differ in the last bits, and each side rounds
    its products and quotient on its own.  _bound_prob runs only on the
    cells whose lower end reaches the smallest upper end of their row, so
    every value returned is its own.
    """
    rate, burst, arrival_decay, service_decay = (np.array(v, dtype=float) for v in zip(*curves))
    x = np.array(delays, dtype=float)[:, None] * rate - burst
    xs = np.maximum(x, 0.0)  # cells with x < 0 are 1 exactly; this keeps their exponents <= 0
    det = np.isnan(arrival_decay)  # a deterministic envelope; its a below is a placeholder
    a = np.where(det, service_decay, arrival_decay)
    b = service_decay
    diff = a - b
    equal = np.abs(diff) <= _EQUAL_RATES_REL * np.maximum(a, b)
    denom = np.where(equal, 1.0, diff)
    gap = np.abs(denom)
    c = 0.5 * (a + b)
    e_b = np.exp(-b * xs)
    p_a, p_b = a * e_b, b * np.exp(-a * xs)
    rise = 1.0 + c * xs
    tied = rise * np.exp(-c * xs)
    value = np.where(det, e_b, np.where(equal, tied, (p_a - p_b) / denom))
    # |numpy - scalar| <= 2 * _EXP_REL * scale + _EXP_ABS * k.  scale is the
    # value, or for unequal rates the cancellation factor
    # (a e^{-bx} + b e^{-ax}) / |a - b|; 2 * _EXP_REL covers the exp slack
    # and both sides' rounding.  k weighs the absolute errors: exp's, and
    # those of a product or quotient that underflows.  The slack doubles
    # that, for the rounding of these terms themselves.
    scale = np.where(det | equal, value, (p_a + p_b) / gap)
    k = np.where(det, 1.0, np.where(equal, rise + 1.0, (a + b + 1.0) / gap + 1.0))
    slack = 4.0 * _EXP_REL * scale + 2.0 * _EXP_ABS * k
    # clamping to [0, 1] is monotone, so it keeps the scalar value inside the clamped ends
    neg = x < 0.0
    lower = np.where(neg, 1.0, np.clip(value - slack, 0.0, 1.0))
    upper = np.where(neg, 1.0, np.clip(value + slack, 0.0, 1.0))
    rows, cols = np.nonzero(lower <= upper.min(axis=1, keepdims=True))
    # in column order, a cell can only replace the row's first minimum so far
    # when its lower end lies strictly below that minimum
    best: list[tuple[int, float] | None] = [None] * len(delays)
    for r, j, low in zip(rows.tolist(), cols.tolist(), lower[rows, cols].tolist()):
        found = best[r]
        if found is None or low < found[1]:
            prob = _bound_prob(curves[j], delays[r])
            if found is None or prob < found[1]:
                best[r] = (j, prob)
    return best


class _ProbeCurves(dict):
    """The curves of each exponent a golden-section probe visits, built on first use.

    One call's probes of every delay share it: adjacent delays mostly
    refine in the same bracket.  Grid exponents are numpy scalars and
    probes Python floats, so the grid keeps its own list and the curves'
    types stay as built.
    """

    def __init__(self, traffic: TrafficSpec, dist: ServiceDistribution, packet_bits: float):
        super().__init__()
        self.inputs = (traffic, dist, packet_bits)

    def __missing__(self, theta: float) -> _Curves | None:
        curves = self[theta] = _stable_curves(*self.inputs, theta)
        return curves


def _golden_min(probed: _ProbeCurves, delay: float, lo: float, hi: float,
                iters: int = 40) -> tuple[float, float]:
    """Golden-section minimisation of the bound at delay over theta in [lo, hi], sampled on a log scale."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _bound_prob(probed[math.exp(c)], delay)
    fd = _bound_prob(probed[math.exp(d)], delay)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _bound_prob(probed[math.exp(c)], delay)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _bound_prob(probed[math.exp(d)], delay)
    mid = math.exp(0.5 * (a + b))
    return mid, _bound_prob(probed[mid], delay)


def optimize_delay_ccdf(
    traffic: TrafficSpec,
    dist: ServiceDistribution,
    packet_bits: float,
    delay_grid: Sequence[float],
    thetas: Sequence[float],
) -> DelayCcdf:
    """Optimised tail bound over a delay grid.

    For each target delay the exponent is chosen by a scan over the theta
    grid followed by golden-section refinement, subject to the stability
    constraint rate(theta) <= R(theta).  Raises Overload when no grid
    exponent is stable, and ValueError for a packet size <= 0 and for
    delays or exponents that are not finite.  Grid points where only the vacuous bound holds get
    probability 1 and no exponent.
    """
    if packet_bits <= 0.0:
        raise ValueError(f"packet_bits must be > 0, got {packet_bits}")
    delays = [float(d) for d in delay_grid]
    if not delays:
        raise ValueError("delay_grid must not be empty")
    if not all(math.isfinite(d) for d in delays):
        raise ValueError("delays must be finite")
    if any(d <= 0.0 for d in delays):
        raise ValueError("delays must be > 0")
    if any(b <= a for a, b in zip(delays, delays[1:])):
        raise ValueError("delay_grid must be strictly increasing")
    grid = np.asarray(list(thetas), dtype=float)
    if grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(grid <= 0.0):
        raise ValueError("theta grid must contain finite, positive exponents")

    # the curves of each stable grid exponent, built once for every delay
    stable = [(t, curves) for t in np.sort(grid)
              if (curves := _stable_curves(traffic, dist, packet_bits, t)) is not None]
    if not stable:
        raise Overload(_overload_message(traffic, dist, packet_bits, grid))

    probed = _ProbeCurves(traffic, dist, packet_bits)
    points: list[DelayBound] = []
    best_prob, best_theta = math.inf, None
    for d, (i, prob) in zip(delays, _grid_minima([curves for _, curves in stable], delays)):
        theta = stable[i][0]
        lo = stable[max(i - 1, 0)][0]
        hi = stable[min(i + 1, len(stable) - 1)][0]
        if lo < hi:
            t_ref, p_ref = _golden_min(probed, d, lo, hi)
            if p_ref < prob:
                prob, theta = p_ref, t_ref
        # a bound valid at a smaller delay also bounds every larger delay
        if prob < best_prob:
            best_prob, best_theta = prob, theta
        if best_prob >= 1.0:
            points.append(DelayBound(delay=d, prob=1.0, theta=None))
        else:
            points.append(DelayBound(delay=d, prob=best_prob, theta=best_theta))
    return DelayCcdf(points=tuple(points))
