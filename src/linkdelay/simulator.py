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
from typing import Callable

import numpy as np

from ._clopper_pearson import upper_limit
from ._record import Frozen, Record, set_field
from .empirical import LinkConfig
from .service_time import ServiceDistribution, TimingConstants, service_distribution
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


class SimTrace(Record):
    """Per-packet record in arrival order; NaN marks fields that never happened."""

    __slots__ = ("arrival", "start", "attempts", "outcome", "delay")

    def __init__(self, arrival: np.ndarray, start: np.ndarray, attempts: np.ndarray,
                 outcome: list[str], delay: np.ndarray) -> None:
        set_field(self, "arrival", arrival)
        set_field(self, "start", start)
        set_field(self, "attempts", attempts)
        set_field(self, "outcome", outcome)
        set_field(self, "delay", delay)


class SimResult(Record):
    __slots__ = ("delivered_delays", "n_arrivals", "n_delivered", "n_queue_drops", "n_retry_drops",
                 "trace")

    def __init__(self, delivered_delays: np.ndarray, n_arrivals: int, n_delivered: int,
                 n_queue_drops: int, n_retry_drops: int, trace: SimTrace | None = None) -> None:
        set_field(self, "delivered_delays", delivered_delays)
        set_field(self, "n_arrivals", n_arrivals)
        set_field(self, "n_delivered", n_delivered)
        set_field(self, "n_queue_drops", n_queue_drops)
        set_field(self, "n_retry_drops", n_retry_drops)
        set_field(self, "trace", trace)

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

    Deterministic for a fixed rng state and inputs: the k-th packet to
    start service takes the k-th outcome drawn, so queue-dropped packets
    never consume a draw, and the rng ends as one draw of n outcomes
    would leave it.

    Outcomes are drawn a chunk at a time inside the Lindley pass, and
    each chunk's delays are written to the output as the chunk ends.  So
    beyond its input and the delays it returns (the first n_delivered
    slots of an array of n, 8 bytes a packet) simulate holds arrays of
    one chunk, and the last q_max + 1 departures when the arrivals could
    fill the waiting room: 12 bytes a packet at 1e6 drop-free packets
    (tracemalloc peak), where drawing all outcomes up front held 33.
    When the pass finds a possible overflow, the rng goes back to its
    state at the draw of the chunk holding stop and draws from there to
    the end again; the delays written past stop are taken back, and the
    recurrence below serves the rest with the outcomes drawn again.

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
    n = arrivals.size
    trace = None
    if collect_trace:
        trace = SimTrace(arrival=arrivals.copy(), start=np.full(n, np.nan),
                         attempts=np.zeros(n, dtype=np.int64),
                         outcome=[OUTCOME_QUEUE_DROP] * n, delay=np.full(n, np.nan))
    draws = _ChunkDraws(dist, rng, arrivals, trace)
    stop = _drop_free_waits(arrivals, cfg.q_max, draws.draw, draws.sink)
    n_queue_drops = 0
    if stop < n:
        atoms = draws.rewind(stop)
        attempts = dist.attempts.take(atoms) if collect_trace else None
        tail, n_queue_drops, _ = _serve_from(stop, arrivals, cfg.q_max, attempts,
                                             dist.durations.take(atoms), atoms < dist.n_max_tries, trace)
        draws.write(tail)
    delivered_delays = draws.delays[:draws.written]
    return SimResult(
        delivered_delays=delivered_delays,
        n_arrivals=n,
        n_delivered=delivered_delays.size,
        n_queue_drops=n_queue_drops,
        n_retry_drops=n - delivered_delays.size - n_queue_drops,
        trace=trace,
    )


class _ChunkDraws:
    """Service outcomes drawn one Lindley chunk at a time, and the delays they give.

    draw(lo, hi) draws the outcomes of packets [lo, hi) and returns their
    service times.  sink(lo, waits) adds those times to the waits of the
    packets from lo on, in place, writes the delays of the delivered ones
    after the delays already written (as write does), and fills their
    trace rows.  Only
    the chunk drawn last is kept, and, at each chunk's draw, the rng state
    and the number of delays written: rewind(stop) takes back what was
    written for packets stop on and redraws their outcomes.
    """

    def __init__(self, dist: ServiceDistribution, rng: np.random.Generator, arrivals: np.ndarray,
                 trace: SimTrace | None) -> None:
        self.dist, self.rng, self.arrivals, self.trace = dist, rng, arrivals, trace
        self.delays = np.empty(arrivals.size)  # delivered delays in service order: `written` of them
        self.written = 0
        self.marks: list[tuple[int, int, dict]] = []  # (lo, written, rng state) at each draw
        self.atoms = self.durations = np.empty(0)

    def draw(self, lo: int, hi: int) -> np.ndarray:
        self.marks.append((lo, self.written, self.rng.bit_generator.state))
        self.atoms = self.dist.draw_atoms(self.rng, hi - lo)
        self.durations = self.dist.durations.take(self.atoms)
        return self.durations

    def sink(self, lo: int, waits: np.ndarray) -> None:
        hi = lo + waits.size
        atoms = self.atoms[:waits.size]
        ok = atoms < self.dist.n_max_tries
        trace = self.trace
        if trace is not None:
            trace.start[lo:hi] = self.arrivals[lo:hi] + waits
            trace.attempts[lo:hi] = self.dist.attempts.take(atoms)
            trace.outcome[lo:hi] = np.where(ok, OUTCOME_DELIVERED, OUTCOME_RETRY_DROP).tolist()
        waits += self.durations[:waits.size]    # in place: the delays of these packets
        if trace is not None:
            trace.delay[lo:hi] = np.where(ok, waits, np.nan)
        self.write(waits[ok])

    def write(self, delays: np.ndarray) -> None:
        """Append delivered delays, in service order, to those already written."""
        self.delays[self.written:self.written + delays.size] = delays
        self.written += delays.size

    def rewind(self, stop: int) -> np.ndarray:
        """The atoms of packets [stop, n), drawn again; what was written for them is taken back.

        The rng goes back to its state at the draw of the chunk holding
        packet stop and draws from there to the end of the input, which
        gives the same draws for that chunk and the stream's next ones
        after it.  The delays written are cut back to those of packets
        before stop.  The trace rows written past stop are left: those
        packets passed the overflow test, so the departure recurrence
        accepts each of them and writes its row again.
        """
        lo, written, state = next(mark for mark in reversed(self.marks) if mark[0] <= stop)
        self.rng.bit_generator.state = state
        atoms = self.dist.draw_atoms(self.rng, self.arrivals.size - lo)
        self.written = written + int(np.count_nonzero(atoms[:stop - lo] < self.dist.n_max_tries))
        return atoms[stop - lo:]


# The Lindley pass works in chunks that start small, so that a queue
# overflowing early costs little, and grow to a size that bounds memory.
_FIRST_CHUNK = 1 << 10
_MAX_CHUNK = 1 << 16


def _drop_free_waits(
    arrivals: np.ndarray,
    q_max: int,
    draw: Callable[[int, int], np.ndarray],
    sink: Callable[[int, np.ndarray], None],
) -> int:
    """Waiting times by the Lindley recursion, up to the first possible overflow.

    With FIFO service and no drops, packet j takes draw j.  With C the
    running sum of service times, X_j = C_{j-1} - A_j and M_j the minimum
    of X_0..X_j, the wait is W_j = X_j - M_j and the departure
    D_j = C_j - M_j.  Returns stop: n when no arrival can meet a full
    queue, otherwise the start of the busy period holding the first that
    might.

    The pass runs over chunks [lo, hi) in order.  draw(lo, hi) gives the
    service times of a chunk's packets, called once per chunk before its
    waits are worked out; sink(lo, waits) then takes the waits of packets
    [lo, lo + waits.size) and may overwrite them.  A chunk is sunk whole
    unless it finds the overflow, and then only its packets before stop.
    So the waits sunk are those of packets [0, stop) and, when stop falls
    in an earlier chunk than the one that finds the overflow, those of
    the packets from stop to the start of that chunk as well.  No array
    of all n packets is kept: the chunks' own arrays, of at most
    _MAX_CHUNK packets, and with a waiting room that n arrivals could
    fill, the last q_max + 1 departures.

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
    slots = q_max + 1       # arrival j meets a full queue when packet j - slots has not departed
    check = slots < n       # else no arrival can find that many packets ahead of it
    ring = np.empty(slots) if check else None   # D_i in ring[i % slots] for the last slots packets
    c_last = 0.0            # C_{lo-1}
    x_min = math.inf        # M_{lo-1}
    start = 0               # latest busy-period start
    lo, size = 0, _FIRST_CHUNK
    while lo < n:
        hi = min(lo + size, n)
        a = arrivals[lo:hi]
        c = np.empty(hi - lo + 1)
        c[0] = c_last
        c[1:] = draw(lo, hi)
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
        w = np.subtract(x, m, out=gap)    # the waits, over the idle times
        # err is needed only where a wait is nonzero but might fall below 2 * err
        i = np.flatnonzero((w > 0.0) & (w <= 2.0 * err_max))   # positions in the chunk
        err = (lo + i - _opened(lo + i, opens) + 9) * ulp
        w[i[w[i] <= 2.0 * err]] = 0.0
        if check:
            departures = c[1:] - m
            # departures never decrease, so more than q_max packets are
            # ahead of arrival j exactly when packet j - slots is; the
            # chunk's err_max picks the arrivals that need their own err
            first = max(lo, slots)   # no earlier arrival has that many ahead
            if first < hi:
                # D_{j - slots} for j in [first, hi): the ring holds those before lo
                held = ring.take(np.arange(first - slots, min(lo, hi - slots)), mode="wrap")
                ahead = np.concatenate((held, departures[:max(hi - slots - lo, 0)]))
                j = first + np.flatnonzero(ahead > arrivals[first:hi] - 5.0 * err_max)
                opened = _opened(j, opens)
                err = (j - opened + 9) * ulp
                full = np.flatnonzero(ahead[j - first] > arrivals[j] - 5.0 * err)
                if full.size:
                    stop = int(opened[full[0]])
                    if stop > lo:
                        sink(lo, w[:stop - lo])
                    return stop
            keep = min(slots, hi - lo)
            ring.put(np.arange(hi - keep, hi), departures[-keep:], mode="wrap")
        sink(lo, w)
        c_last, x_min, start = float(c[-1]), float(m[-1]), int(opens[-1])
        lo, size = hi, min(2 * size, _MAX_CHUNK)
    return n


def _opened(j: np.ndarray, opens: np.ndarray) -> np.ndarray:
    """The start of the busy period holding each packet j: the last of opens at or before it."""
    return opens[np.searchsorted(opens, j, side="right") - 1]


def _serve_from(
    first: int,
    arrivals: np.ndarray,
    q_max: int,
    draw_attempts: np.ndarray | None,
    draw_durations: np.ndarray,
    draw_delivered: np.ndarray,
    trace: SimTrace | None,
) -> tuple[np.ndarray, int, int]:
    """FIFO departure recurrence over packets [first, n).

    Packet first must meet an idle server and an empty queue.  The draws
    given start at packet first's, and the k-th packet accepted from here
    takes draw k; draw_attempts is read only for the trace and may be
    None without one.  Service is FIFO, so departures never decrease, and an
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
    durations = memoryview(draw_durations)  # indexes to Python floats, no list built
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
    ok = draw_delivered[:k]
    delay = (start - arr) + draw_durations[:k]
    if trace is not None:
        trace.start[first:][accepted] = start
        trace.attempts[first:][accepted] = draw_attempts[:k]
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


class EmpiricalCcdf(Record):
    """Exceedance fractions on a delay grid with one-sided upper confidence."""

    __slots__ = ("delays", "fractions", "upper", "n_samples", "confidence")

    def __init__(self, delays: np.ndarray, fractions: np.ndarray, upper: np.ndarray,
                 n_samples: int, confidence: float) -> None:
        set_field(self, "delays", delays)
        set_field(self, "fractions", fractions)
        set_field(self, "upper", upper)
        set_field(self, "n_samples", n_samples)
        set_field(self, "confidence", confidence)


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


class DominanceViolation(Frozen):
    __slots__ = ("delay", "empirical_upper", "bound_prob")

    def __init__(self, delay: float, empirical_upper: float, bound_prob: float) -> None:
        set_field(self, "delay", delay)
        set_field(self, "empirical_upper", empirical_upper)
        set_field(self, "bound_prob", bound_prob)


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
