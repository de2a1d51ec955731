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
from itertools import islice
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

    Deterministic for a fixed rng state and inputs: packet j takes the
    j-th outcome drawn, whether the queue accepts it or not; a
    queue-dropped packet's outcome goes unused.  The rng ends as one draw
    of n outcomes would leave it.

    Outcomes are drawn a chunk at a time inside the Lindley pass, and
    each chunk's delays are written to the output as the chunk ends.
    When the pass finds a possible overflow, the rng goes back to its
    state at the draw of the chunk holding stop and draws that chunk's
    outcomes before stop again; the delays written past stop are taken
    back, and ``_serve_from`` serves the rest in blocks of _MAX_CHUNK
    arrivals, drawing each block's outcomes in turn.  So whether or not
    the queue overflows, beyond its input and the delays
    it returns (the first n_delivered slots of an array of n, 8 bytes a
    packet) simulate holds arrays of one chunk or block, one intp index
    buffer of the largest chunk or block (512 KiB past 65,536 packets),
    through which outcomes become service times, and the last q_max + 1
    departures when the arrivals could fill the waiting room: 12-15
    bytes a packet at 1e6 packets (tracemalloc peak), where drawing all
    outcomes up front held 33 and serving the whole tail at once held up
    to 58.

    Waiting times come from the Lindley recursion, evaluated with numpy
    over the arrivals that cannot meet a full queue: with FIFO service and
    no drop yet, arrival j meets a full queue exactly when packet
    j - q_max - 1 has not departed, so each arrival is tested against
    that one departure.  From the start of the busy period that holds the
    first arrival that might, ``_serve_from`` takes over: from there on
    every start and delay is a per-packet event loop's bit for bit.  It
    runs the whole segments cut from each block from an empty queue in
    numpy lockstep, and the event loop only until its run meets theirs
    and over the rest; the starts and the trace rows are taken from the
    departures with numpy.  A strided arrivals array gives the result of
    its contiguous copy.  Counts and outcomes are those of the event loop run over the
    whole input, and a packet that meets an idle server has a delay of
    exactly its service time.  In the Lindley prefix only, the delay of a packet
    that waited can differ from the event loop's by rounding, because
    the two add service times in different orders: by at most
    5 * (p + 8) * ulp(T), where p is the packet's position in its busy
    period (1 for the packet that opens it) and T is twice the sum of
    all service draws and the largest |arrival|.  Two busy periods count
    as one here when the idle time between them is below a rounding
    margin.  At T near 1e7 ms and p near 1e3 the bound is about 1e-5 ms.
    A wait below 2 * (p + 8) * ulp(T) is taken as none.  These margins
    are those of every packet's own p, though p is worked out only for
    the packets a chunk-wide bound on it leaves in doubt.  Arrivals for
    which twice the largest |arrival| plus n times the longest service
    time passes the float range raise ValueError.
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
    peak = max(abs(float(arrivals[0])), abs(float(arrivals[-1])))
    # every atom's duration: one of probability 0 is still drawn where rounding leaves
    # the delivery probabilities' partial sum below 1
    if not math.isfinite(2.0 * (peak + n * max(dist.durations))):    # an upper bound on T
        raise ValueError(f"arrivals up to {peak:g} ms take the simulation's sums past the float range")
    trace = None
    if collect_trace:
        trace = SimTrace(arrival=arrivals.copy(), start=np.full(n, np.nan),
                         attempts=np.zeros(n, dtype=np.int64),
                         outcome=[OUTCOME_QUEUE_DROP] * n, delay=np.full(n, np.nan))
    draws = _ChunkDraws(dist, rng, arrivals, trace)
    stop = _drop_free_waits(arrivals, cfg.q_max, draws.draw, draws.sink)
    n_queue_drops = 0
    if stop < n:
        draws.rewind(stop)
        n_queue_drops = _serve_from(stop, cfg.q_max, draws)
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
    """Service outcomes drawn one Lindley chunk or tail block at a time, and the delays they give.

    Packet j takes the j-th outcome drawn, whether the queue accepts it
    or not; the outcome of a queue-dropped packet goes unused.  draw(lo,
    hi) draws the outcomes of packets [lo, hi) and returns their service
    times.  sink(lo, waits) adds those times to the waits of the packets
    from lo on, in place, and hands them to deliver, which writes the
    delays of the delivered ones after the delays already written and
    fills the trace rows; ``_serve_from`` hands deliver its blocks too.
    Only the chunk drawn last is kept, and, at each draw of the Lindley
    pass, the rng state and the number of delays written: rewind(stop)
    takes back what was written for packets stop on and sets the rng to
    packet stop's draw, from which ``_serve_from`` draws on.
    """

    def __init__(self, dist: ServiceDistribution, rng: np.random.Generator, arrivals: np.ndarray,
                 trace: SimTrace | None) -> None:
        self.dist, self.rng, self.arrivals, self.trace = dist, rng, arrivals, trace
        self.delays = np.empty(arrivals.size)  # delivered delays in service order: `written` of them
        self.written = 0
        self.marks: list[tuple[int, int, dict]] = []  # (lo, written, rng state) at each draw
        self.atoms = self.durations = np.empty(0)
        # room for the largest chunk or block: the first chunk may exceed _MAX_CHUNK
        self.index = np.empty(min(arrivals.size, max(_FIRST_CHUNK, _MAX_CHUNK)), dtype=np.intp)

    def draw(self, lo: int, hi: int) -> np.ndarray:
        self.marks.append((lo, self.written, self.rng.bit_generator.state))
        return self.draw_on(hi - lo)

    def draw_on(self, size: int) -> np.ndarray:
        """The service times of the next size outcomes, kept with their atoms.

        The atoms go through the intp index buffer: take widens a narrow
        index itself, several times slower than a cast and a take on intp.
        """
        self.atoms = self.dist.draw_atoms(self.rng, size)
        index = self.index[:size]
        index[...] = self.atoms
        self.durations = self.dist.duration_array.take(index)
        return self.durations

    def sink(self, lo: int, waits: np.ndarray) -> None:
        starts = None if self.trace is None else self.arrivals[lo:lo + waits.size] + waits
        waits += self.durations[:waits.size]    # in place: the delays of these packets
        self.deliver(lo, lo + waits.size, slice(None), starts, waits)

    def deliver(self, lo: int, hi: int, served: slice | np.ndarray, starts: np.ndarray | None,
                delays: np.ndarray) -> None:
        """Write the delivered delays of the packets served in [lo, hi), and their trace rows.

        The outcomes drawn last are those of packets lo on.  served picks
        the packets served out of [lo, hi): slice(None) for all of them,
        else their ascending index from lo.  starts and delays are theirs,
        in service order; starts is read only for the trace.  The
        delivered delays go after those already written, and the trace
        rows of the packets not served read queue drops.
        """
        ok = self.atoms[:hi - lo][served] < self.dist.n_max_tries
        delivered = int(np.count_nonzero(ok))
        self.delays[self.written:self.written + delivered] = delays[ok]
        self.written += delivered
        trace = self.trace
        if trace is not None:
            trace.start[lo:hi][served] = starts
            trace.attempts[lo:hi][served] = self.dist.attempts.take(self.index[:hi - lo][served])
            trace.delay[lo:hi][served] = np.where(ok, delays, np.nan)
            outcome = np.full(hi - lo, OUTCOME_QUEUE_DROP, dtype=object)
            outcome[served] = np.where(ok, OUTCOME_DELIVERED, OUTCOME_RETRY_DROP)
            trace.outcome[lo:hi] = outcome.tolist()

    def rewind(self, stop: int) -> None:
        """Take back what was written for packets stop on, and set the rng to packet stop's draw.

        The rng goes back to its state at the draw of the chunk holding
        packet stop and draws that chunk's outcomes before stop again, the
        same draws, to count the delays written for those packets: the
        delays written are cut back to those of packets before stop.  The
        trace rows written past stop are left: those packets passed the
        overflow test, so ``_serve_from`` accepts each of them and writes
        its row again.
        """
        self.atoms = self.durations = np.empty(0)   # the last chunk's draws are not read again
        lo, written, state = next(mark for mark in reversed(self.marks) if mark[0] <= stop)
        self.rng.bit_generator.state = state
        atoms = self.dist.draw_atoms(self.rng, stop - lo)
        self.written = written + int(np.count_nonzero(atoms < self.dist.n_max_tries))


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
    fail the overflow test at err_max.  Only such a chunk lists the busy
    periods that open in it; any other takes the last one from its end.
    The waits, stop and margins are those of a pass that computes err for
    every packet.
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
        # ms[k] = M_{lo-1+k}: finite arrivals and service times >= 0 leave
        # no NaN in xs, so fmin takes the minimum, faster than np.minimum
        ms = np.fmin.accumulate(xs)
        m = ms[1:]
        ulp = float(np.spacing(2.0 * (c[-1] + max(abs(arrivals[0]), abs(a[-1])))))
        idle = 5.0 * (hi + 8) * ulp       # an idle time above this opens a busy period
        err_max = (hi + 8 - start) * ulp  # no packet of this chunk has a larger err
        w = np.subtract(x, m, out=x)      # the waits
        # err is needed only where a wait is nonzero but might fall below 2 * err
        i = np.flatnonzero((w > 0.0) & (w <= 2.0 * err_max))   # positions in the chunk
        j = np.empty(0, dtype=np.intp)    # arrivals that might meet a full queue
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
        if i.size or j.size:
            # the busy period carried in, then those that open in this chunk
            opened_here = np.flatnonzero(_idle_times(ms, 0, hi - lo) > idle)
            opens = np.concatenate(([start], lo + opened_here))
            err = (lo + i - _opened(lo + i, opens) + 9) * ulp
            w[i[w[i] <= 2.0 * err]] = 0.0
            if j.size:
                opened = _opened(j, opens)
                err = (j - opened + 9) * ulp
                full = np.flatnonzero(ahead[j - first] > arrivals[j] - 5.0 * err)
                if full.size:
                    stop = int(opened[full[0]])
                    if stop > lo:
                        sink(lo, w[:stop - lo])
                    return stop
            start = int(opens[-1])
        else:
            start = _last_opened(ms, idle, lo, start)
        if check:
            keep = min(slots, hi - lo)
            ring.put(np.arange(hi - keep, hi), departures[-keep:], mode="wrap")
        sink(lo, w)
        c_last, x_min = float(c[-1]), float(m[-1])
        lo, size = hi, min(2 * size, _MAX_CHUNK)
    return n


def _idle_times(ms: np.ndarray, begin: int, end: int) -> np.ndarray:
    """Idle time before each arrival [lo + begin, lo + end) of a chunk where positive, else 0.

    ms[k] is M_{lo-1+k}.  The idle time is A_j - D_{j-1} = M_{j-1} - X_j,
    and where it is positive M_j = X_j, so M_{j-1} - M_j is that same
    difference, bit for bit; where it is not, M_j = M_{j-1} and the
    difference is 0.
    """
    return ms[begin:end] - ms[begin + 1:end + 1]


def _last_opened(ms: np.ndarray, idle: float, lo: int, start: int) -> int:
    """The latest busy-period start up to the end of a chunk: start when none opens in it.

    Idle times are taken back from the chunk's end over windows that
    double, so that a chunk whose last busy period is short looks at a
    few dozen packets, and one with no idle time looks at each packet once.
    """
    end, width = ms.size - 1, 64
    while end > 0:
        begin = max(end - width, 0)
        found = np.flatnonzero(_idle_times(ms, begin, end) > idle)
        if found.size:
            return lo + begin + int(found[-1])
        end, width = begin, 2 * width
    return start


def _opened(j: np.ndarray, opens: np.ndarray) -> np.ndarray:
    """The start of the busy period holding each packet j: the last of opens at or before it."""
    return opens[np.searchsorted(opens, j, side="right") - 1]


# The tail is speculated in segments of this many arrivals
_SEGMENT = 1 << 8


def _serve_from(first: int, q_max: int, draws: _ChunkDraws) -> int:
    """The FIFO event loop's run over packets [first, n), in blocks of _MAX_CHUNK arrivals.

    Packet first must meet an idle server and an empty queue, and the rng
    of draws must stand at packet first's draw; each block draws the
    outcomes of its packets.  Service is FIFO, so departures never
    decrease, and an arrival at t meets q_max + 1 packets in the system
    exactly when the packet accepted q_max + 1 places before it departs
    after t (a departure at t frees its place first).

    A block is served in two phases.  ``_speculate`` runs each of the
    whole segments of _SEGMENT arrivals cut from its start (the block
    itself when it is shorter) from an empty queue, all of them at once.
    Then ``_event_loop`` serves each segment in order from its true
    state, the state the segment before it left, but only until the loop
    and the speculative run both find the queue empty at the same
    arrival.  There every departure of either run is at or before the
    arrival, so no later drop test tells the runs apart, and from there
    on they do the same float operations: the speculative run's
    acceptances, departures and final state are the loop's.  The
    arrivals past the last whole segment are one stretch the loop serves
    from its true state, and so is a block after one where the loop would
    walk half or more: counted in rows of _SEGMENT accepted arrivals, each
    from its first to the first that found the server idle, where runs
    can first meet.  The starts are taken from the departures with numpy,
    by the loop's comparison, so every start, delay and count is the
    event loop's bit for bit.  Each block writes its delays and trace rows
    through draws.deliver, so beyond the delays memory holds one block's
    arrays and the last m departures.  Returns the queue drops.
    """
    arrivals = draws.arrivals
    n = arrivals.size
    m = min(q_max, n - first) + 1   # never more slots than packets, whatever q_max
    deps = [-math.inf] * m          # the last m departures, then those the block adds
    speculate = True
    n_queue_drops = 0
    for lo in range(first, n, _MAX_CHUNK):
        hi = min(lo + _MAX_CHUNK, n)
        service = draws.draw_on(hi - lo)
        arr = arrivals[lo:hi]
        kept, prev = _serve_block(arr, service, m, deps, speculate)
        arr = arr.take(kept)            # an index takes faster than a mask picks
        busy = prev > arr               # the loop's test: it waits only for a strictly later departure
        start = np.where(busy, prev, arr)
        draws.deliver(lo, hi, kept, start, (start - arr) + service.take(kept))
        n_queue_drops += hi - lo - kept.size
        del deps[:-m]                   # the next block needs only the last m
        rows = busy[:busy.size - busy.size % _SEGMENT].reshape(-1, _SEGMENT)    # _SEGMENT accepted a row
        to_idle = rows.argmin(axis=1)   # per row the first that found the server idle, 0 if none did
        speculate = 2 * (to_idle + _SEGMENT * rows[np.arange(to_idle.size), to_idle]).sum() < rows.size
    return n_queue_drops


def _serve_block(arr: np.ndarray, service: np.ndarray, m: int, deps: list[float],
                 speculate: bool) -> tuple[np.ndarray, np.ndarray]:
    """One block of ``_serve_from``: (accepted, prev).

    accepted indexes the arrivals the queue accepts, in order, and prev
    holds the departure before each of them.  With speculate the event
    loop walks the whole segments ``_speculate`` ran and then serves the
    rest past them as one stretch; without it, the whole block is that
    stretch.  deps must end with the last m departures before the block,
    and ends with entries the loop's tests take as the last m after it:
    where the loop meets a speculative run, deps goes on with that run's
    last departures, and an older entry the loop reads again lies at or
    before the arrival where they met, as the true one does.
    """
    size = arr.size
    width = min(_SEGMENT, size)
    whole = size - size % width if speculate else 0    # the arrivals of the whole segments
    accepted, departure = np.ones(size, dtype=bool), np.empty(size)    # in arrival order
    times, durations = memoryview(arr), memoryview(service)    # a strided view iterates in order too
    drops: list[int] = []               # per queue drop of the loop, len(deps) - m at the drop
    before = dep = deps[-1]             # the departure of the last packet accepted before the block
    if whole:
        empty, finals = _speculate(arr[:whole], service[:whole], m, accepted[:whole], departure[:whole])
        met = memoryview(empty)
        # the loop's departures, and per stretch it served: where it starts, how many
        # arrivals it took, and what turns the record of a drop in it into its index
        loop_deps: list[float] = []
        spans: list[tuple[int, int, int, int]] = []
        for i, s0 in enumerate(range(0, whole, width)):
            s1, r = s0 + width, 0
            if dep > times[s0]:         # else the runs meet at s0, where both find it empty
                k0, d0 = len(deps), len(drops)
                dep = _event_loop(times[s0:s1], durations[s0:s1], met[s0:s1], deps, m, dep, drops)
                r = len(deps) - k0 + len(drops) - d0
                loop_deps += deps[k0:]
                spans.append((s0, r, s0 - (k0 - m) - d0, len(drops) - d0))
            if r < width:               # met: the speculative run is the loop's from s0 + r
                deps += finals[i].tolist()
                dep = deps[-1]
        if spans:
            at, length, offset, count = np.array(spans).T
            fixed = np.arange(length.sum()) + np.repeat(at - (np.cumsum(length) - length), length)
            accepted[fixed] = True
            accepted[np.fromiter(drops, np.intp, len(drops)) + np.arange(len(drops))
                     + np.repeat(offset, count)] = False
            departure[fixed[accepted[fixed]]] = np.fromiter(loop_deps, float, len(loop_deps))
    if whole < size:                    # the rest, from the true state to its end: all flags false
        k0, drops = len(deps), []
        _event_loop(times[whole:], durations[whole:], memoryview(bytes(size - whole)), deps, m, dep, drops)
        rest = accepted[whole:]
        rest[np.fromiter(drops, np.intp, len(drops)) + np.arange(len(drops)) + (m - k0)] = False
        departure[whole + np.flatnonzero(rest)] = np.fromiter(islice(deps, k0, None), float, len(deps) - k0)
    kept = np.flatnonzero(accepted)
    prev = np.empty(kept.size)
    prev[:1] = before
    departure.take(kept[:-1], out=prev[1:])
    return kept, prev


def _event_loop(times: memoryview, durations: memoryview, met: memoryview, deps: list[float],
                m: int, dep: float, drops: list[int]) -> float:
    """The FIFO event loop over arrivals at times with the given service durations.

    deps holds the departures of the packets accepted so far, at least
    the last m, and dep the last of them; each accepted packet appends its
    departure, and each queue drop appends len(deps) - m to drops.  An
    arrival meets a full queue when the departure m places back is after
    it.  The loop stops before the first arrival that finds the queue
    empty where its flag in met is true, and returns the last departure.
    """
    k = len(deps) - m
    base = k + len(drops)           # k + len(drops) - base: the arrival's place in times
    for t, s in zip(times, durations):
        if deps[k] > t:
            drops.append(k)
            continue
        if dep > t:
            dep += s
        elif met[k + len(drops) - base]:
            break
        else:
            dep = t + s
        deps.append(dep)
        k += 1
    return dep


def _speculate(arr: np.ndarray, service: np.ndarray, m: int, accepted: np.ndarray,
               departure: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segments of width min(_SEGMENT, arr.size), each run from an empty queue in numpy lockstep.

    arr holds whole segments; a step reads and writes one row of views
    with a segment a column.  Fills accepted with whether the run of its
    segment accepts each arrival and departure with the departure it
    gives the arrival if it does, in arrival order.  Returns (empty,
    finals): whether the run finds the queue empty at each arrival, and
    per segment the last min(m, width) departures its run leaves (-inf
    for fewer).  An arrival is dropped when the departure pushed m
    accepted places back is after it, and otherwise pushes its departure
    on its segment's history, which starts with -inf.
    """
    width = min(_SEGMENT, arr.size)
    segments = arr.size // width
    # a segment accepts fewer than width packets before its last test, so
    # past width slots every test reads the -inf it starts with
    pad = min(m, width)
    history = np.full(segments * (pad + width), -math.inf)
    pushed = history[pad:]              # pushed[i] is history[i + pad], pad accepted places on
    last = history[pad - 1:]            # last[i]: the departure just before pushed[i]
    head = np.arange(0, history.size, pad + width)  # per segment: its entry m places back
    done = np.empty(segments)
    rows = (x.reshape(segments, width).T for x in (arr, service, accepted, departure))
    for t, s, ok, st in zip(*rows):
        np.less_equal(history[head], t, out=ok)
        # the start; a tie may take the other zero of the two, whose sum with s is the same
        np.maximum(t, last[head], out=st)
        np.add(st, s, out=done)
        pushed[head] = done             # a dropped arrival's is overwritten before it is read
        head += ok
    empty = departure == arr            # the run finds the queue empty exactly where it starts on arrival
    departure += service
    return empty, history[head[:, None] + np.arange(pad)]


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


# empirical_ccdf sorts and counts the samples a block of this many at a time
_CCDF_BLOCK = 1 << 14


def empirical_ccdf(delays: np.ndarray, grid: np.ndarray, confidence: float = 0.99) -> EmpiricalCcdf:
    """Fraction of samples strictly exceeding each grid point.

    The upper envelope is the one-sided Clopper-Pearson binomial bound at
    the given confidence level, which must lie in [0.5, 1).

    The exceedances are counted over blocks of _CCDF_BLOCK samples, each
    converted to float and sorted in one buffer of that size: the counts
    are those of one sort of all the samples, but an array of them costs
    the call 128 KiB whatever their number, not a sorted copy.
    """
    if not 0.5 <= confidence < 1.0:
        raise ValueError(f"confidence must be in [0.5, 1), got {confidence}")
    delays = np.asarray(delays)
    grid = np.asarray(grid, dtype=float)
    n = delays.size
    if n == 0:
        raise ValueError("need at least one delay sample")
    exceed = np.zeros(grid.shape, dtype=np.intp)
    buffer = np.empty(min(n, _CCDF_BLOCK))
    for lo in range(0, n, _CCDF_BLOCK):
        block = buffer[:min(n - lo, _CCDF_BLOCK)]
        block[...] = delays[lo:lo + block.size]
        block.sort()
        exceed += block.size - np.searchsorted(block, grid, side="right")
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
