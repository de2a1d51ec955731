"""Stochastic delay bounds via min-plus envelopes.

Arrival processes get stochastic arrival curves (rate envelope alpha plus
an exponential or deterministic violation bound f); the retransmitting
server gets a latency-free rate service curve derived from the
service-time MGF.  Combining the two yields, for each target delay, a
tail-probability bound obtained from the Stieltjes convolution of the two
violation bounds (one closed form for any two decay rates), optimised
over the free exponent theta.

Each traffic spec gives its own arrival envelope (traffic.py), which
refuses the exponents it cannot take, so this module tells no traffic
kinds apart.  optimize_delay_ccdf builds its kernel once per call: one
function maps an exponent to its curves, or to why it is infeasible,
with the spec's envelope and the service law's MGF bound once, and
each exponent's bound is a function of the delay whose exponent-only
terms are worked out once.  The theta grid seeds a scan: its stable
exponents and, above them, the feasible edge, found exactly by
bisection (the next float is infeasible), where most delays take their
minimum.  A golden-section search refines a delay's scan minimum only
where it is interior, between its two neighbours.  A bound below the
smallest float is 0.  The module is pure Python: numpy loads only for
DelayCcdf's arrays.

Traffic volume is measured in bits; a packet contributes packet_bits at
its arrival instant.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from ._record import Frozen, set_field
from .empirical import _MGF_EXPONENT_LIMIT
from .gg1 import Overload
from .service_time import ServiceDistribution
from .traffic import TrafficSpec

TYPE_CHECKING = False  # typing.TYPE_CHECKING for type checkers, without importing typing
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ArrivalCurve",
    "ServiceCurve",
    "DelayBound",
    "DelayCcdf",
    "Overload",
    "arrival_curve_for",
    "service_curve",
    "convolve_exponential_bounds",
    "optimize_delay_ccdf",
]


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
        set_field(self, "rate", rate)
        set_field(self, "burst", burst)
        set_field(self, "decay", decay)

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
        set_field(self, "rate", rate)
        set_field(self, "theta", theta)

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
        set_field(self, "delay", delay)
        set_field(self, "prob", prob)
        set_field(self, "theta", theta)


class DelayCcdf(Frozen):
    """Optimised delay tail bound on a grid of target delays."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[DelayBound, ...]) -> None:
        set_field(self, "points", points)

    def delays(self) -> np.ndarray:
        import numpy as np

        return np.array([p.delay for p in self.points])

    def probs(self) -> np.ndarray:
        import numpy as np

        return np.array([p.prob for p in self.points])


def arrival_curve_for(spec: TrafficSpec, packet_bits: float, theta: float) -> ArrivalCurve:
    """Arrival curve of a traffic spec at the given exponent (the spec's envelope).

    The spec's own fields were checked when it was built; ValueError
    where its envelope refuses theta.
    """
    if packet_bits <= 0.0:
        raise ValueError(f"packet_bits must be > 0, got {packet_bits}")
    if theta <= 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    if (fields := spec.envelope(packet_bits)(theta)) is None:
        raise ValueError(f"no arrival curve at theta {theta}: {_PACKET_OVERFLOW}")
    return ArrivalCurve(*fields)


def service_curve(dist: ServiceDistribution, packet_bits: float, theta: float) -> ServiceCurve:
    """Rate service curve R = packet_bits * theta / ln(MGF(theta))."""
    if theta <= 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    if packet_bits <= 0.0:
        raise ValueError(f"packet_bits must be > 0, got {packet_bits}")
    log_m = math.log(dist.mgf(theta))
    if not log_m > 0.0:  # the MGF rounds to 1 (theta near 0)
        raise ValueError("service-time MGF must exceed 1 for theta > 0")
    return ServiceCurve(rate=packet_bits * theta / log_m, theta=theta)


def convolve_exponential_bounds(a: float, b: float, x: float) -> float:
    """Tail 1 - conv(fbar, gbar)(x) for bounds exp(-a*x) and exp(-b*x).

    exp(-s*x) * (1 + s*g) with s = min(a, b), d = |a - b| and g = -expm1(-d*x) / d
    (g = x at d = 0), capped at 1: one form for equal and unequal rates, exact near
    a = b, where (a*exp(-b*x) - b*exp(-a*x)) / (a - b) cancels, and symmetric bit for bit.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("decay rates must be > 0")
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    # curves of unit rate and no burst put the slack at x itself
    return _bound_at((1.0, 0.0, a, b))(x)


# (service rate R, arrival burst, arrival decay or None when deterministic, service decay)
_Curves = tuple[float, float, float | None, float]
# the bound at one theta as a function of the delay
_Bound = Callable[[float], float]


# why an exponent has no curves, as the overload message states it
_SERVICE_OVERFLOW = "the service-time MGF would leave exp()'s range"
_PACKET_OVERFLOW = "the MGF of one packet's bits would leave exp()'s range"
_MGF_FLAT = "the service-time MGF rounds to 1, so there is no service curve"
_ENVELOPE = "the arrival envelope exceeds the service curve"


def _curve_builder(traffic: TrafficSpec, dist: ServiceDistribution,
                   packet_bits: float) -> Callable[[float], _Curves | str]:
    """A map from theta to what the bound reads of the curves there, or to why theta is infeasible.

    theta is infeasible when the service-time MGF would leave exp()'s
    range, when the spec's envelope refuses it (None: so would the MGF of
    one packet's bits), when theta is so small that the service-time MGF
    rounds to 1 (no service curve), or when the arrival envelope outruns
    the service curve.  The spec's envelope and the service law's MGF are
    looked up once, not on every theta, and the service rate is
    service_curve's.
    """
    envelope = traffic.envelope(packet_bits)
    max_duration, mgf = dist.max_duration, dist.mgf

    def curves_at(theta: float) -> _Curves | str:
        if theta * max_duration > _MGF_EXPONENT_LIMIT:
            return _SERVICE_OVERFLOW
        fields = envelope(theta)
        if fields is None:
            return _PACKET_OVERFLOW
        log_m = math.log(mgf(theta))
        if not log_m > 0.0:
            return _MGF_FLAT
        rate = packet_bits * theta / log_m
        arrival_rate, burst, decay = fields
        if arrival_rate > rate:
            return _ENVELOPE
        return rate, burst, decay, theta / rate   # theta / rate is ServiceCurve.decay

    return curves_at


def _overload_message(curves_at: Callable[[float], _Curves | str], grid: list[float]) -> str:
    """Why no exponent of the sorted grid is stable: each cause with the exponents it refused."""
    refused: dict[str, list[float]] = {}
    for t in grid:
        refused.setdefault(curves_at(t), []).append(t)
    head = "no stable exponent in the theta grid; "
    if refused.keys() == {_ENVELOPE}:
        return head + "arrival envelope exceeds the service curve everywhere"
    if refused.keys() == {_MGF_FLAT}:
        # the MGF never decreases in theta, so it is 1 all the way up
        return head + (f"the service-time MGF rounds to 1 up to its largest exponent "
                       f"{grid[-1]:.3g}, so no exponent has a service curve")
    return head + "; ".join(
        (f"at exponent {ts[0]:.3g}" if len(ts) == 1
         else f"at {len(ts)} exponents from {ts[0]:.3g} to {ts[-1]:.3g}") + f", {cause}"
        for cause, ts in refused.items())


def _bound_at(curves: _Curves | str) -> _Bound:
    """The bound on P{delay exceeded} at one theta as a function of the delay.

    curves is what curves_at gives: the bound is inf for an infeasible
    theta's cause.  The delay is the horizontal distance (burst + x) / R
    between the envelope raised by x bits and the service curve, so
    x = delay * R - burst.  A stochastic envelope's bound convolves the
    violation bounds exp(-a*x) and exp(-b*x) (convolve_exponential_bounds).
    What depends on theta alone is worked out once and bound as defaults,
    which read as locals, as do math.exp and math.expm1.
    """
    if isinstance(curves, str):
        return lambda delay: math.inf
    rate, burst, a, b = curves
    if a is None:
        def bound(delay: float, rate=rate, burst=burst, nb=-b, exp=math.exp) -> float:
            x = delay * rate - burst
            # x >= 0, so the exponent is <= 0 and the bound already lies in [0, 1]
            return 1.0 if x < 0.0 else exp(nb * x)
    else:
        # exp(-s*x) * (1 + s*g) with g = (1 - exp(-d*x)) / d, which is x at d = 0;
        # s*g = c * expm1(-d*x) with c = s / -d
        s, d = min(a, b), abs(a - b)

        def bound(delay: float, rate=rate, burst=burst, s=s, ns=-s, nd=-d, c=s / -d if d else 0.0,
                  exp=math.exp, expm1=math.expm1) -> float:
            x = delay * rate - burst
            if x < 0.0:
                return 1.0
            val = exp(ns * x) * (1.0 + (c * expm1(nd * x) if nd else s * x))
            return 1.0 if val > 1.0 else val
    return bound


def _grid_minima(curves: Sequence[_Curves], delays: Sequence[float]) -> list[tuple[int, float]]:
    """For each delay, the index and value of the first smallest bound over curves.

    Each curve's bound function is built once; a delay's row holds every
    curve's bound there, and row.index(min(row)) finds its first minimum,
    as np.argmin over the row would.
    """
    bounds = [_bound_at(c) for c in curves]
    rows = ([bound(d) for bound in bounds] for d in delays)
    return [(row.index(m := min(row)), m) for row in rows]


def _golden_min(bound: Callable[[float], float], lo: float, hi: float,
                iters: int = 40) -> tuple[float, float]:
    """Golden-section minimisation of bound(theta) over [lo, hi], sampled on a log scale."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = bound(math.exp(c)), bound(math.exp(d))
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = bound(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = bound(math.exp(d))
    mid = math.exp(0.5 * (a + b))
    return mid, bound(mid)


def _edge(curves_at: Callable[[float], _Curves | str], lo: float, hi: float) -> float:
    """From feasible lo and infeasible hi, the largest feasible exponent.

    Each refusal is monotone in theta, so the feasible exponents form an
    interval, whose top a bisection in log theta (arithmetic once the
    geometric mean rounds onto an end) reaches when lo and hi are adjacent floats.
    """
    while lo < (mid := math.sqrt(lo) * math.sqrt(hi)) < hi or lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if isinstance(curves_at(mid), str):
            hi = mid
        else:
            lo = mid
    return lo


def optimize_delay_ccdf(
    traffic: TrafficSpec,
    dist: ServiceDistribution,
    packet_bits: float,
    delay_grid: Sequence[float],
    thetas: Sequence[float],
) -> DelayCcdf:
    """Optimised tail bound over a delay grid.

    For each target delay the exponent is chosen by a scan over the stable
    exponents of the theta grid and the exact feasible edge above them
    (stability rate(theta) <= R(theta), and exp()'s range), and a minimum
    with a candidate on each side and a bound below 1 is refined by
    golden-section search between them.  Raises Overload when no grid
    exponent is stable, and ValueError for a packet size <= 0 and for
    delays or exponents that are not finite.  Grid points where only the
    vacuous bound holds get probability 1 and no exponent.
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
    grid = sorted(float(t) for t in thetas)
    if not grid or not all(0.0 < t < math.inf for t in grid):
        raise ValueError("theta grid must contain finite, positive exponents")

    curves_at = _curve_builder(traffic, dist, packet_bits)
    # the curves of each stable grid exponent, built once for every delay
    stable = [(t, curves) for t in grid if not isinstance(curves := curves_at(t), str)]
    if not stable:
        raise Overload(_overload_message(curves_at, grid))
    # the feasible edge closes the scan: between the largest stable grid exponent
    # and the next one, or an exponent whose service-time MGF overflows
    top = stable[-1][0]
    refused = next((t for t in grid if t > top), 2.0 * _MGF_EXPONENT_LIMIT / dist.max_duration)
    if (edge := _edge(curves_at, top, refused)) > top:
        stable.append((edge, curves_at(edge)))

    points: list[DelayBound] = []
    best_prob, best_theta = math.inf, None
    for d, (i, prob) in zip(delays, _grid_minima([curves for _, curves in stable], delays)):
        theta = stable[i][0]
        # refine only a minimum with a candidate on each side: past the edge theta is infeasible;
        # adjacent delays share few probes, so each probe builds its curves and bound afresh
        if 0 < i < len(stable) - 1 and prob < 1.0:
            t_ref, p_ref = _golden_min(lambda t: _bound_at(curves_at(t))(d),
                                       stable[i - 1][0], stable[i + 1][0])
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
