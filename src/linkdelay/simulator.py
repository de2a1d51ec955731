"""Discrete-event oracle: single-server FIFO queue with finite waiting room.

Packets arrive at given instants, wait in a queue holding at most q_max
packets (the one in service not counted), and occupy the server for a
duration drawn from the service-time distribution.  Packets that exhaust
all transmission attempts still occupy the server for their full failed
duration but deliver nothing.  Delivered-packet delay is waiting time
plus own service time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._clopper_pearson import upper_limit
from .empirical import LinkConfig
from .service_time import TimingConstants, service_distribution
from .traffic import TrafficSpec, generate_arrivals

__all__ = [
    "SimTrace",
    "SimResult",
    "EmpiricalCcdf",
    "DominanceViolation",
    "simulate",
    "run_simulation",
    "empirical_ccdf",
    "dominance_report",
]

OUTCOME_DELIVERED = "delivered"
OUTCOME_RETRY_DROP = "retry_drop"
OUTCOME_QUEUE_DROP = "queue_drop"


@dataclass
class SimTrace:
    """Per-packet record in arrival order; NaN marks fields that never happened."""

    arrival: np.ndarray
    start: np.ndarray
    attempts: np.ndarray
    outcome: list[str]
    delay: np.ndarray


@dataclass
class SimResult:
    delivered_delays: np.ndarray
    n_arrivals: int
    n_delivered: int
    n_queue_drops: int
    n_retry_drops: int
    trace: SimTrace | None = field(default=None, repr=False)

    @property
    def mean_delay(self) -> float:
        return float(np.mean(self.delivered_delays)) if self.n_delivered else float("nan")

    @property
    def loss_fraction(self) -> float:
        return (self.n_queue_drops + self.n_retry_drops) / self.n_arrivals


def simulate(
    arrivals: np.ndarray,
    cfg: LinkConfig,
    tc: TimingConstants,
    p_e: float,
    rng: np.random.Generator,
    collect_trace: bool = False,
) -> SimResult:
    """Run the queue over the given arrival instants.

    Deterministic for a fixed rng state and inputs: service outcomes are
    drawn up front and consumed in service-start order, so queue-dropped
    packets never consume a draw.

    Waiting times come from the Lindley recursion, evaluated with numpy
    over the arrivals that cannot meet a full queue: with FIFO service and
    no drop yet, arrival j meets a full queue exactly when packet
    j - q_max - 1 has not departed, so each arrival is tested against
    that one departure.  From the start of the busy period that holds the
    first arrival that might, an exact FIFO departure recurrence takes
    over (``_serve_from``): it does the float operations of a per-packet
    event loop in its order, so from there on every start and delay is
    the event loop's bit for bit.  It keeps only a list of departures and
    the accepted count at each queue drop; the starts, the accepted mask
    and the trace rows are rebuilt from them with numpy.  A strided
    arrivals array gives the result of its contiguous copy.
    Counts and outcomes are those of the event loop run over the whole
    input, and a packet that meets an idle server has a delay of exactly
    its service time.  In the Lindley prefix only, the delay of a packet
    that waited can differ from the event loop's by rounding, because
    the two add service times in different orders: by at most
    5 * (p + 8) * ulp(T), where p is the packet's position in its busy
    period (1 for the packet that opens it) and T is twice the sum of
    all service draws and the largest |arrival|.  Two busy periods count
    as one here when the idle time between them is below a rounding
    margin.  At T near 1e7 ms and p near 1e3 the bound is about 1e-5 ms.
    A wait below 2 * (p + 8) * ulp(T) is taken as none.  These margins
    are those of every packet's own p, though p is worked out only for
    the packets a chunk-wide bound on it leaves in doubt.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.size == 0:
        raise ValueError("arrivals must not be empty")
    # finite ends and no step down (a NaN fails every comparison) leave
    # every arrival finite; the full isfinite only picks the message
    if not (math.isfinite(arrivals[0]) and math.isfinite(arrivals[-1])
            and np.all(arrivals[1:] >= arrivals[:-1])):
        if not np.all(np.isfinite(arrivals)):
            raise ValueError("arrivals must be finite")
        raise ValueError("arrivals must be non-decreasing")
    dist = service_distribution(cfg, tc, p_e)
    draw_attempts, draw_durations, draw_delivered = dist.sample_many(rng, arrivals.size)

    n = arrivals.size
    wait, stop = _drop_free_waits(arrivals, draw_durations, cfg.q_max)
    # no packet before stop is dropped from the queue, so packet j took draw j
    head_ok = draw_delivered[:stop]
    trace = None
    if collect_trace:
        trace = SimTrace(arrival=arrivals.copy(), start=np.full(n, np.nan),
                         attempts=np.zeros(n, dtype=np.int64),
                         outcome=[OUTCOME_QUEUE_DROP] * n, delay=np.full(n, np.nan))
        trace.start[:stop] = arrivals[:stop] + wait
        trace.attempts[:stop] = draw_attempts[:stop]
        trace.outcome[:stop] = np.where(head_ok, OUTCOME_DELIVERED, OUTCOME_RETRY_DROP).tolist()
        trace.delay[:stop] = np.where(head_ok, wait + draw_durations[:stop], np.nan)
    tail, n_queue_drops, n_retry_drops = _serve_from(
        stop, arrivals, cfg.q_max, draw_attempts, draw_durations, draw_delivered, trace)
    wait += draw_durations[:stop]    # in place: the delays of packets [0, stop)
    delivered_delays = wait[head_ok]
    n_retry_drops += stop - delivered_delays.size
    if tail.size:
        delivered_delays = np.concatenate((delivered_delays, tail))
    return SimResult(
        delivered_delays=delivered_delays,
        n_arrivals=n,
        n_delivered=delivered_delays.size,
        n_queue_drops=n_queue_drops,
        n_retry_drops=n_retry_drops,
        trace=trace,
    )


# The Lindley pass works in chunks that start small, so that a queue
# overflowing early costs little, and grow to a size that bounds memory.
_FIRST_CHUNK = 1 << 10
_MAX_CHUNK = 1 << 16


def _drop_free_waits(arrivals: np.ndarray, durations: np.ndarray, q_max: int) -> tuple[np.ndarray, int]:
    """Waiting times by the Lindley recursion, up to the first possible overflow.

    With FIFO service and no drops, packet j takes draw j.  With C the
    running sum of service times, X_j = C_{j-1} - A_j and M_j the minimum
    of X_0..X_j, the wait is W_j = X_j - M_j and the departure
    D_j = C_j - M_j.  Returns (waits, stop): the waits of packets
    [0, stop), where stop is n when no arrival can meet a full queue and
    otherwise the start of the busy period holding the first that might.

    Rounding: with T twice the sum of the draws so far and the largest
    |arrival|, for the packet at position p of its busy period this pass
    and the event loop (whose arithmetic ``_serve_from`` repeats) each
    stay within err = (p + 8) * ulp(T) of exact arithmetic on the same
    inputs, in departure and in wait.  So a departure counts as done
    before an arrival only when it precedes it by more than 5 * err,
    which never misses an overflow; and a busy period starts only after
    an idle gap above 5 * (h + 8) * ulp(T), h the end of the chunk (never
    below p), which the event loop sees as idle too, so that packet stop
    meets an idle server and an empty queue there as well.

    Departures never decrease (C does not, M does not increase), so
    arrival j has more than q_max packets ahead exactly when
    D_{j-q_max-1} > A_j - 5 * err: one comparison per arrival.  No packet
    of a chunk has an err above err_max = (h + 8 - s) * ulp(T), s the
    busy-period start carried into the chunk, so the chunk is screened
    with err_max and each packet's own err is computed only where the
    screen leaves a doubt: waits in (0, 2 * err_max] and arrivals that
    fail the overflow test at err_max.  The waits, stop and margins are
    those of a pass that computes err for every packet.
    """
    n = arrivals.size
    waits = np.empty(n)
    check = q_max < n - 1   # else no arrival can find q_max + 1 packets ahead of it
    departures = np.empty(n) if check else None
    c_last = 0.0            # C_{lo-1}
    x_min = math.inf        # M_{lo-1}
    start = 0               # latest busy-period start
    lo, size = 0, _FIRST_CHUNK
    while lo < n:
        hi = min(lo + size, n)
        a = arrivals[lo:hi]
        c = np.empty(hi - lo + 1)
        c[0] = c_last
        c[1:] = durations[lo:hi]
        np.cumsum(c, out=c)  # left to right, as the loop adds: c[k] = C_{lo-1+k}
        xs = np.empty(hi - lo + 1)
        xs[0] = x_min
        x = xs[1:]
        np.subtract(c[:-1], a, out=x)
        ms = np.minimum.accumulate(xs)  # ms[k] = M_{lo-1+k}
        m = ms[1:]
        ulp = float(np.spacing(2.0 * (c[-1] + max(abs(arrivals[0]), abs(a[-1])))))
        # idle time before each arrival: A_j - D_{j-1} = M_{j-1} - X_j
        gap = ms[:-1] - x
        # the busy period carried in, then those that open in this chunk
        opens = np.concatenate(([start], lo + np.flatnonzero(gap > 5.0 * (hi + 8) * ulp)))
        err_max = (hi + 8 - start) * ulp  # no packet of this chunk has a larger err
        w = waits[lo:hi]
        np.subtract(x, m, out=w)
        # err is needed only where a wait is nonzero but might fall below 2 * err
        j = lo + np.flatnonzero((w > 0.0) & (w <= 2.0 * err_max))
        err = (j - _opened(j, opens) + 9) * ulp
        waits[j[waits[j] <= 2.0 * err]] = 0.0
        if check:
            np.subtract(c[1:], m, out=departures[lo:hi])
            # departures never decrease, so more than q_max packets are
            # ahead of arrival j exactly when packet j - q_max - 1 is; the
            # chunk's err_max picks the arrivals that need their own err
            first = max(lo, q_max + 1)   # no earlier arrival has that many ahead
            if first < hi:
                j = first + np.flatnonzero(departures[first - q_max - 1:hi - q_max - 1]
                                           > arrivals[first:hi] - 5.0 * err_max)
                opened = _opened(j, opens)
                err = (j - opened + 9) * ulp
                full = np.flatnonzero(departures[j - q_max - 1] > arrivals[j] - 5.0 * err)
                if full.size:
                    stop = int(opened[full[0]])
                    return waits[:stop], stop
        c_last, x_min, start = float(c[-1]), float(m[-1]), int(opens[-1])
        lo, size = hi, min(2 * size, _MAX_CHUNK)
    return waits, n


def _opened(j: np.ndarray, opens: np.ndarray) -> np.ndarray:
    """The start of the busy period holding each packet j: the last of opens at or before it."""
    return opens[np.searchsorted(opens, j, side="right") - 1]


def _serve_from(
    first: int,
    arrivals: np.ndarray,
    q_max: int,
    draw_attempts: np.ndarray,
    draw_durations: np.ndarray,
    draw_delivered: np.ndarray,
    trace: SimTrace | None,
) -> tuple[np.ndarray, int, int]:
    """FIFO departure recurrence over packets [first, n).

    Packet first must meet an idle server and an empty queue, with draws
    [0, first) used; the k-th packet accepted from here takes draw
    first + k.  Service is FIFO, so departures never decrease, and an
    arrival at t meets q_max + 1 packets in the system exactly when the
    packet accepted q_max + 1 places before it departs after t (a
    departure at t frees its place first).  One list holds the
    departures, after m = min(q_max, n - first) + 1 leading -inf, so
    that its entry k is the departure that the k-th accepted packet is
    tested against.  A queue drop records only the accepted count at
    that moment; the dropped arrival's index is that count plus the
    drops before it.  An accepted packet starts at the later of its
    arrival and the previous departure, which numpy takes again after
    the loop with the same comparison.  These are the float operations
    of a per-packet event loop, in its order, so starts and delays are
    the loop's bit for bit.  Returns (delivered delays in service order,
    queue drops, retry drops) and fills the trace rows of these packets.
    """
    arr = arrivals[first:]
    durations = memoryview(draw_durations[first:])  # indexes to Python floats, no list built
    m = min(q_max, arr.size) + 1    # never more slots than packets, whatever q_max
    deps = [-math.inf] * m          # deps[m + i]: departure of the i-th accepted packet
    dep = -math.inf                 # departure of the last accepted packet
    k = 0                           # packets accepted so far
    drops: list[int] = []           # the accepted count at each queue drop
    for t in memoryview(arr):       # a strided view iterates in order too
        if deps[k] > t:
            drops.append(k)
            continue
        dep = (dep if dep > t else t) + durations[k]
        deps.append(dep)
        k += 1
    prev = np.array(deps)[m - 1:-1]  # the departure before each accepted packet: -inf, D_0, ...
    del deps
    accepted = np.ones(arr.size, dtype=bool)
    accepted[np.array(drops, dtype=np.intp) + np.arange(len(drops))] = False
    arr = arr[accepted]
    start = np.where(prev > arr, prev, arr)  # the loop's max: the arrival unless strictly later
    ok = draw_delivered[first:first + k]
    delay = (start - arr) + draw_durations[first:first + k]
    if trace is not None:
        trace.start[first:][accepted] = start
        trace.attempts[first:][accepted] = draw_attempts[first:first + k]
        trace.delay[first:][accepted] = np.where(ok, delay, np.nan)
        outcome = np.full(accepted.size, OUTCOME_QUEUE_DROP, dtype=object)
        outcome[accepted] = np.where(ok, OUTCOME_DELIVERED, OUTCOME_RETRY_DROP)
        trace.outcome[first:] = outcome.tolist()
    delays = delay[ok]
    return delays, len(drops), k - delays.size


def run_simulation(
    cfg: LinkConfig,
    tc: TimingConstants,
    traffic: TrafficSpec,
    p_e: float,
    seed: int,
    collect_trace: bool = False,
) -> SimResult:
    """Generate arrivals and simulate with a single seeded stream."""
    rng = np.random.default_rng(seed)
    arrivals = generate_arrivals(traffic, rng)
    return simulate(arrivals, cfg, tc, p_e, rng, collect_trace=collect_trace)


@dataclass
class EmpiricalCcdf:
    """Exceedance fractions on a delay grid with one-sided upper confidence."""

    delays: np.ndarray
    fractions: np.ndarray
    upper: np.ndarray
    n_samples: int
    confidence: float


def empirical_ccdf(delays: np.ndarray, grid: np.ndarray, confidence: float = 0.99) -> EmpiricalCcdf:
    """Fraction of samples strictly exceeding each grid point.

    The upper envelope is the one-sided Clopper-Pearson binomial bound at
    the given confidence level, which must lie in [0.5, 1).
    """
    if not 0.5 <= confidence < 1.0:
        raise ValueError(f"confidence must be in [0.5, 1), got {confidence}")
    samples = np.sort(np.asarray(delays, dtype=float))
    grid = np.asarray(grid, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("need at least one delay sample")
    exceed = n - np.searchsorted(samples, grid, side="right")
    return EmpiricalCcdf(delays=grid.copy(), fractions=exceed / n,
                         upper=upper_limit(exceed, n, confidence),
                         n_samples=n, confidence=confidence)


@dataclass(frozen=True)
class DominanceViolation:
    delay: float
    empirical_upper: float
    bound_prob: float


def dominance_report(
    emp: EmpiricalCcdf,
    bound_delays: np.ndarray,
    bound_probs: np.ndarray,
    min_bound_prob: float = 0.0,
) -> list[DominanceViolation]:
    """Grid points where the empirical upper confidence exceeds the bound.

    Both inputs must share the same delay grid.  An empty report means the
    analytic bound dominates the measurement everywhere it is checked;
    points with bound probability below min_bound_prob are skipped.
    """
    bound_delays = np.asarray(bound_delays, dtype=float)
    bound_probs = np.asarray(bound_probs, dtype=float)
    if bound_delays.shape != emp.delays.shape or not np.allclose(
        bound_delays, emp.delays, rtol=1e-12, atol=1e-9
    ):
        raise ValueError("bound and empirical CCDF must use the same delay grid")
    violations = []
    for d, up, bp in zip(emp.delays, emp.upper, bound_probs):
        if bp < min_bound_prob:
            continue
        if up > bp:
            violations.append(DominanceViolation(delay=float(d), empirical_upper=float(up),
                                                 bound_prob=float(bp)))
    return violations
