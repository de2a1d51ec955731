"""Traffic specs: each kind's arrival instants and arrival envelope.

Three traffic shapes: strictly periodic, Poisson, and a two-state
Markov On-Off source that emits packets at a constant rate while On.
All rates are packets/ms, times are ms.  Each spec draws its arrivals
for the simulator and gives its envelope for the tail bound, so no other
module tells the kinds apart or keeps a kind's exp() range rule.  Only
arrivals needs numpy, and imports it when it runs.
"""

from __future__ import annotations

import math

from ._record import Frozen, set_field
from .empirical import _MGF_EXPONENT_LIMIT, _check_integer

TYPE_CHECKING = False  # typing.TYPE_CHECKING for type checkers, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

    # an arrival curve's (rate bits/ms, burst bits, decay 1/bits or None); None past exp()'s range
    Envelope = Callable[[float], tuple[float, float, float | None] | None]

__all__ = [
    "PeriodicTraffic",
    "PoissonTraffic",
    "OnOffTraffic",
    "TrafficSpec",
    "generate_arrivals",
]

# packets drawn when a spec names no horizon
DEFAULT_HORIZON = 20000


class PeriodicTraffic(Frozen):
    kind = "periodic"  # the name a config's traffic section gives

    __slots__ = ("t_pit", "horizon")

    def __init__(
        self,
        t_pit: float,         # packet inter-arrival time, ms
        horizon: int = DEFAULT_HORIZON,
    ) -> None:
        if t_pit <= 0.0:
            raise ValueError(f"t_pit must be > 0, got {t_pit}")
        _check_horizon(horizon)
        set_field(self, "t_pit", t_pit)
        set_field(self, "horizon", horizon)

    @property
    def mean_interarrival(self) -> float:
        return self.t_pit

    def arrivals(self, rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        return np.arange(self.horizon, dtype=float) * self.t_pit

    def envelope(self, packet_bits: float) -> Envelope:
        """Deterministic envelope: one packet of burst on the mean bit rate; theta is not read."""
        fields = packet_bits / self.t_pit, packet_bits, None
        return lambda theta: fields


class PoissonTraffic(Frozen):
    kind = "poisson"

    __slots__ = ("rate", "horizon")

    def __init__(
        self,
        rate: float,          # packets/ms
        horizon: int = DEFAULT_HORIZON,
    ) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        _check_horizon(horizon)
        set_field(self, "rate", rate)
        set_field(self, "horizon", horizon)

    @property
    def mean_interarrival(self) -> float:
        return 1.0 / self.rate

    def arrivals(self, rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        gaps = rng.exponential(1.0 / self.rate, self.horizon)
        return np.cumsum(gaps, out=gaps)

    def envelope(self, packet_bits: float) -> Envelope:
        """Chernoff envelope of the packet arrivals at each exponent theta.

        The envelope rate (rate/theta) * (exp(theta*packet_bits) - 1)
        already accounts for whole packets arriving at single instants,
        so no burst term is needed.  None where theta * packet_bits
        passes _MGF_EXPONENT_LIMIT, so that exp() stays in its range.
        """
        rate = self.rate
        return lambda theta: (None if theta * packet_bits > _MGF_EXPONENT_LIMIT
                              else (rate * math.expm1(theta * packet_bits) / theta, 0.0, theta))


class OnOffTraffic(Frozen):
    """Markov-modulated source: Off->On at mu_off_on, On->Off at lam_on_off.

    While On, one packet is emitted per 1/rate of accumulated On time;
    the emission clock pauses during Off periods, so the long-run packet
    rate is exactly rate * P(On) with P(On) = mu_off_on / (lam_on_off + mu_off_on).
    The source starts in Off at t = 0.
    """

    kind = "onoff"

    __slots__ = ("lam_on_off", "mu_off_on", "rate", "horizon")

    def __init__(
        self,
        lam_on_off: float,    # 1/ms, leaves On
        mu_off_on: float,     # 1/ms, leaves Off
        rate: float,          # packets/ms while On
        horizon: int = DEFAULT_HORIZON,
    ) -> None:
        if lam_on_off <= 0.0 or mu_off_on <= 0.0:
            raise ValueError("state transition rates must be > 0")
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        _check_horizon(horizon)
        set_field(self, "lam_on_off", lam_on_off)
        set_field(self, "mu_off_on", mu_off_on)
        set_field(self, "rate", rate)
        set_field(self, "horizon", horizon)

    @property
    def p_on(self) -> float:
        return self.mu_off_on / (self.lam_on_off + self.mu_off_on)

    @property
    def mean_interarrival(self) -> float:
        return 1.0 / (self.rate * self.p_on)

    def arrivals(self, rng: np.random.Generator) -> np.ndarray:
        """ValueError where the horizon takes more than _MAX_CYCLES on-off cycles to emit."""
        # a packet takes 1/rate of On time, a cycle 1/lam_on_off on average
        if (cycles := self.horizon * self.lam_on_off / self.rate) > _MAX_CYCLES:
            raise ValueError(f"on-off traffic would draw about {cycles:.3g} on-off cycles for its "
                             f"{self.horizon} packets, past the limit of {_MAX_CYCLES:.0e}: "
                             "raise rate or lower lam_on_off or horizon")
        return _onoff_arrivals(self, rng, self.horizon)

    def envelope(self, packet_bits: float) -> Envelope:
        """Effective-bandwidth envelope of the source as a fluid of peak rate r = rate * packet_bits.

        The envelope rate is the Perron root of the exponentially tilted
        generator,

            rate(theta) = (theta*r - lam - mu
                           + sqrt((theta*r - lam + mu)^2 + 4*lam*mu)) / (2*theta),

        with lam = lam_on_off and mu = mu_off_on, which runs from the mean
        rate r*mu/(lam+mu) at theta -> 0 up to the peak rate.  The fluid
        envelope holds for the emitted packet stream only after adding one
        packet of burst allowance, because a whole packet arrives the
        moment its fluid equivalent completes.  Where the square passes
        the float range (theta * r above about 1.3e154), the root is taken
        as |g| * sqrt(1 + 4 * (lam/g) * (mu/g)), g = theta*r - lam + mu,
        which stays in range; everywhere else the square is taken as it is.
        Below theta*r = lam + mu the numerator cancels, so the rate is
        taken in the conjugate form 2*mu*theta*r / (theta * (sqrt(...) -
        theta*r + lam + mu)), which has no subtraction of near equals.
        """
        lam, mu, peak = self.lam_on_off, self.mu_off_on, self.rate * packet_bits

        def envelope(theta: float) -> tuple[float, float, float]:
            tr = theta * peak
            gap = tr - lam + mu
            try:
                root = math.sqrt(gap ** 2 + 4.0 * lam * mu)
            except OverflowError:   # gap ** 2 is past the float range
                root = abs(gap) * math.sqrt(1.0 + 4.0 * (lam / gap) * (mu / gap))
            if tr >= lam + mu:
                rate = (tr - lam - mu + root) / (2.0 * theta)
            else:   # tr - lam - mu + root cancels: the same root times its conjugate over it
                rate = 2.0 * mu * tr / (theta * (root - tr + lam + mu))
            return rate, packet_bits, theta

        return envelope


TrafficSpec = PeriodicTraffic | PoissonTraffic | OnOffTraffic


# caps on a block of on-off cycles: the cycles drawn at once, which bounds
# memory when most cycles emit nothing, and the packets they are sized to emit
_MAX_BLOCK_CYCLES = 1 << 16
_BLOCK_PACKETS = 1 << 16
# the on-off cycles a horizon may take on average: 3e8 take about 17 s to draw
_MAX_CYCLES = 1e8


def _check_horizon(horizon: int) -> None:
    _check_integer("horizon", horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


def generate_arrivals(spec: TrafficSpec, rng: np.random.Generator) -> np.ndarray:
    """Arrival instants (ms, non-decreasing) for spec.horizon packets.

    Raises ValueError, not numpy's overflow warning, when they pass the
    float range.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        arrivals = spec.arrivals(rng)
    if not math.isfinite(arrivals[-1]):
        raise ValueError(f"{spec.kind} arrivals pass the float range within {spec.horizon} packets")
    return arrivals


def _emitted_by(on_time: np.ndarray, period: float) -> np.ndarray:
    """Largest k with k * period <= on_time in float arithmetic, per element, as floats.

    The quotient's floor can miss by one near a multiple of period, so it
    is corrected with the comparison itself.  At a subnormal period the
    quotient can pass the float range: it reads inf, which the comparisons
    keep, and the caller clamps the counts to the packets it wants.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        total = np.floor(on_time / period)
    total += (total + 1.0) * period <= on_time
    total -= total * period > on_time
    return total


def _onoff_arrivals(spec: OnOffTraffic, rng: np.random.Generator, n: int) -> np.ndarray:
    """Emission instants of an On-Off source that starts Off at t = 0.

    Cycles are drawn in blocks: an Off then an On sojourn per cycle, from
    one interleaved draw, which uses the stream exactly as alternating
    scalar draws would.  Packet k is emitted once the accumulated On time
    reaches k / rate.  Clocks are running sums taken left to right, and
    the stream is rewound so that it stops after the cycle holding the
    n-th emission: the output and the rng state are those of a per-cycle
    scalar loop, bit for bit, whatever the blocks' sizes.  A block is
    sized to emit about _BLOCK_PACKETS packets, which are written into
    the output in place, so that no other array grows with n.
    """
    import numpy as np

    period = 1.0 / spec.rate
    scales = np.array([1.0 / spec.mu_off_on, 1.0 / spec.lam_on_off])
    t = 0.0          # wall clock at the end of the last cycle
    on_time = 0.0    # accumulated On time at the end of the last cycle
    emitted = 0      # packets emitted so far, the largest k with k * period <= on_time
    out = np.empty(n)
    while emitted < n:
        left = n - emitted
        # cycles expected to cover the block's packets, with some to spare
        cycles = min(int(1.1 * min(left, _BLOCK_PACKETS) * spec.lam_on_off / spec.rate) + 16,
                     _MAX_BLOCK_CYCLES)
        state = rng.bit_generator.state
        sojourns = (rng.standard_exponential(2 * cycles).reshape(cycles, 2) * scales).ravel()
        # clock[2c] is the wall time at which cycle c turns On
        clock = np.cumsum(np.concatenate(([t], sojourns)))[1:]
        on_end = np.cumsum(np.concatenate(([on_time], sojourns[1::2])))
        on_start, on_end = on_end[:-1], on_end[1:]
        # past n the counts are not used, and a peak rate near 1e17 would
        # take them past int64
        total = np.minimum(_emitted_by(on_end, period), n).astype(np.int64)
        counts = np.diff(total, prepend=emitted)
        used = cycles
        if total[-1] - emitted >= left:
            used = int(np.searchsorted(total, n)) + 1
            rng.bit_generator.state = state
            rng.standard_exponential(2 * used)
            counts = counts[:used]
            counts[-1] -= total[used - 1] - n
        # packet k of cycle c at clock[2 * c] + (k * period - on_start[c])
        on_at = np.repeat(on_start[:used], counts)
        times = out[emitted:emitted + on_at.size]
        times[:] = np.arange(emitted + 1, emitted + 1 + on_at.size, dtype=float)
        times *= period
        times -= on_at
        times += np.repeat(clock[:2 * used:2], counts)
        emitted += on_at.size
        t, on_time = float(clock[2 * used - 1]), float(on_end[used - 1])
    return out
