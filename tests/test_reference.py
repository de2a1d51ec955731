"""The vectorised simulator core, the on-off generator and the tail bound against references.

The references are the sequential event loop (packet j taking the j-th
outcome drawn, served or not) and the scalar on-off generator the
package used before both were vectorised, the Lindley pass and the atom
draw as they were before they skipped per-packet work, and the
per-(theta, delay) bound composition the optimiser used before it built
its curves once per theta.  The Lindley pass and the atom draw must
reproduce theirs bit for bit, dtypes and rng state included.  Counts,
outcomes, on-off arrivals and rng states must be identical.  The tail
serve after a possible overflow, whatever the lengths of its lockstep
segments and blocks, must reproduce the loop bit for bit.  Through
``simulate``, whose drop-free prefix comes from the Lindley pass, the
delay of a packet that met an idle server must be bit-equal and every
other delay within the rounding tolerance that ``simulate`` documents;
where no packet waits before the switch to the tail serve, or all arrive
at 0, or every sum is exact (service times and arrivals on a lattice),
every delay, trace row and the rng state must be the loop's bit for
bit, whichever chunk the switch packet falls in and whichever bit
generator draws.  The optimiser's bound must be the reference
composition's bit for bit, and so must the whole optimiser on a
stochastic envelope, against its loop as it was before probes shared
their curves.  On a deterministic envelope, which the optimiser solves
exactly, no bound may be looser than the loop's, and each exponent must
meet the first-order condition of the convex log bound.
"""

import json
import math
from collections import Counter, deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linkdelay import (
    LinkConfig,
    OnOffTraffic,
    PeriodicTraffic,
    PoissonTraffic,
    ServiceDistribution,
    SimTrace,
    ThetaGridSpec,
    TimingConstants,
    arrival_curve_for,
    convolve_exponential_bounds,
    generate_arrivals,
    service_curve,
    service_distribution,
    simulate,
)
from linkdelay import simulator, snc
from linkdelay.traffic import _emitted_by

TC = TimingConstants()


def reference_simulate(arrivals, cfg, tc, p_e, rng):
    """Sequential event loop: (delays, queue drops, retry drops, start, attempts, outcome, delay).

    Packet idx takes the idx-th outcome drawn; a queue-dropped packet's goes unused.
    """
    dist = service_distribution(cfg, tc, p_e)
    draw_attempts, draw_durations, draw_delivered = dist.sample_many(rng, arrivals.size)
    n = arrivals.size
    start = np.full(n, np.nan)
    attempts = np.zeros(n, dtype=np.int64)
    outcome = ["queue_drop"] * n
    delay = np.full(n, np.nan)
    queue = deque()
    busy_until = -np.inf
    busy = False
    n_queue_drops = 0
    n_retry_drops = 0
    delays = []

    def begin_service(idx, at):
        nonlocal n_retry_drops
        k = draw_attempts[idx]
        duration = draw_durations[idx]
        ok = draw_delivered[idx]
        start[idx] = at
        attempts[idx] = k
        if ok:
            outcome[idx] = "delivered"
            d = (at - arrivals[idx]) + duration
            delay[idx] = d
            delays.append(d)
        else:
            outcome[idx] = "retry_drop"
            n_retry_drops += 1
        return at + duration

    for i in range(n):
        t = arrivals[i]
        while busy and busy_until <= t:
            if queue:
                busy_until = begin_service(queue.popleft(), busy_until)
            else:
                busy = False
        if not busy:
            busy = True
            busy_until = begin_service(i, t)
        elif len(queue) < cfg.q_max:
            queue.append(i)
        else:
            n_queue_drops += 1
    while queue:
        busy_until = begin_service(queue.popleft(), busy_until)
    return np.asarray(delays), n_queue_drops, n_retry_drops, start, attempts, outcome, delay


def reference_onoff(spec, rng, n):
    """Scalar on-off generator: one Off and one On draw per cycle."""
    times = []
    t = 0.0
    on_time = 0.0
    emitted = 0
    period = 1.0 / spec.rate
    while len(times) < n:
        t += rng.exponential(1.0 / spec.mu_off_on)
        sojourn = rng.exponential(1.0 / spec.lam_on_off)
        end = on_time + sojourn
        k = emitted + 1
        while k * period <= end and len(times) < n:
            times.append(t + (k * period - on_time))
            k += 1
        emitted = k - 1
        on_time = end
        t += sojourn
    return np.asarray(times)


def delay_tolerance(arrivals, cfg, p_e, ref_start, ref_outcome, ref_attempts):
    """Per-packet bound 5 * (p + 8) * ulp(T) of ``simulate``, with p and T from the reference.

    p counts packets from the last arrival that found the server idle for
    more than twice the margin ``simulate`` needs to open a busy period,
    so it is never below the p of ``simulate``; T uses n times the longest
    service time, never below the sum of the draws.
    """
    dist = service_distribution(cfg, TC, p_e)
    n = arrivals.size
    ends = np.full(n, -np.inf)
    for i in np.flatnonzero(~np.isnan(ref_start)):
        atom = int(ref_attempts[i]) - 1 if ref_outcome[i] == "delivered" else -1
        ends[i] = ref_start[i] + dist.durations[atom]
    ulp = np.spacing(2.0 * (n * dist.max_duration + max(abs(arrivals[0]), abs(arrivals[-1]))))
    last_end = np.concatenate(([-np.inf], np.maximum.accumulate(ends)[:-1]))
    idx = np.arange(n)
    opened = np.maximum.accumulate(np.where(arrivals - last_end > 10.0 * (n + 8) * ulp, idx, 0))
    return 5.0 * (idx - opened + 9) * ulp


def assert_matches_reference(arrivals, cfg, p_e, seed, collect_trace):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = reference_simulate(arrivals, cfg, TC, p_e, ref_rng)
    ref_delays, ref_q, ref_r, ref_start, ref_attempts, ref_outcome, ref_delay = ref
    got = simulate(arrivals, cfg, TC, p_e, rng, collect_trace=collect_trace)

    assert (got.n_queue_drops, got.n_retry_drops) == (ref_q, ref_r)
    assert got.n_delivered == ref_delays.size
    assert got.n_delivered + got.n_queue_drops + got.n_retry_drops == arrivals.size
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    delivered = np.array([o == "delivered" for o in ref_outcome], dtype=bool)
    no_wait = ref_start == arrivals
    tol = delay_tolerance(arrivals, cfg, p_e, ref_start, ref_outcome, ref_attempts)
    assert np.array_equal(got.delivered_delays[no_wait[delivered]], ref_delays[no_wait[delivered]])
    assert np.all(np.abs(got.delivered_delays - ref_delays) <= tol[delivered])

    if collect_trace:
        tr = got.trace
        assert tr.outcome == ref_outcome
        assert np.array_equal(tr.attempts, ref_attempts)
        assert np.array_equal(np.isnan(tr.start), np.isnan(ref_start))
        assert np.array_equal(tr.start[no_wait], ref_start[no_wait])
        assert np.array_equal(tr.delay[no_wait], ref_delay[no_wait], equal_nan=True)
        served = ~np.isnan(ref_start)
        assert np.all(np.abs(tr.start - ref_start)[served] <= tol[served])
        assert np.all(np.abs(tr.delay - ref_delay)[delivered] <= tol[delivered])
    else:
        assert got.trace is None


@st.composite
def scenarios(draw):
    """A link, an error rate and arrivals from any traffic kind, loads either side of 1."""
    n_max_tries = draw(st.integers(1, 5))
    # LinkConfig rejects q_max = 0: one waiting slot is the smallest queue
    q_max = draw(st.sampled_from([1, draw(st.integers(2, 6)), 10**6]))
    link = LinkConfig(l_d=draw(st.integers(1, 110)), n_max_tries=n_max_tries,
                      d_retry=draw(st.sampled_from([0.0, 12.5, 30.0])), q_max=q_max)
    p_e = draw(st.sampled_from([0.0, draw(st.floats(0.05, 0.9)), 1.0]))
    dist = service_distribution(link, TC, p_e)
    mean_t = dist.mean()
    rho = draw(st.floats(0.2, 1.3))
    n = draw(st.integers(1, 1500))
    kind = draw(st.sampled_from(["periodic", "tie", "poisson", "onoff"]))
    if kind == "periodic":
        spec = PeriodicTraffic(t_pit=mean_t / rho, horizon=n)
    elif kind == "tie":
        # arrivals spaced by one service atom exactly: departures land on arrival instants
        atom = draw(st.sampled_from(dist.durations))
        spec = PeriodicTraffic(t_pit=atom, horizon=n)
    elif kind == "poisson":
        spec = PoissonTraffic(rate=rho / mean_t, horizon=n)
    else:
        switch = 1.0 / (draw(st.floats(1.0, 10.0)) * mean_t)
        spec = OnOffTraffic(lam_on_off=switch, mu_off_on=switch, rate=2.0 * rho / mean_t, horizon=n)
    seed = draw(st.integers(0, 2**32 - 1))
    arrivals = generate_arrivals(spec, np.random.default_rng(seed))
    return arrivals, link, p_e, seed


# (segment, block) lengths of the tail serve: its own, and lengths short
# enough that up to 1500 arrivals span many segments and blocks
TAIL_LENGTHS = [(simulator._SEGMENT, simulator._MAX_CHUNK), (1, 5), (2, 64), (7, 100), (64, 300)]


def tail_lengths(segment, block):
    """The tail serve's segment and block lengths, set for a with block."""
    return mock.patch.multiple(simulator, _SEGMENT=segment, _MAX_CHUNK=block)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.booleans(), st.sampled_from(TAIL_LENGTHS))
def test_simulate_matches_reference_loop(scenario, collect_trace, lengths):
    arrivals, link, p_e, seed = scenario
    with tail_lengths(*lengths):
        assert_matches_reference(arrivals, link, p_e, seed, collect_trace)


def serve(arrivals, link, p_e, seed, collect_trace):
    """The tail serve alone, from packet 0 and a fresh seeded rng.

    Returns (delays, queue drops, retry drops, trace or None, the rng after it).
    """
    n = arrivals.size
    trace = None
    if collect_trace:
        trace = SimTrace(arrival=arrivals.copy(), start=np.full(n, np.nan),
                         attempts=np.zeros(n, dtype=np.int64), outcome=["queue_drop"] * n,
                         delay=np.full(n, np.nan))
    rng = np.random.default_rng(seed)
    draws = simulator._ChunkDraws(service_distribution(link, TC, p_e), rng, arrivals, trace)
    n_queue_drops = simulator._serve_from(0, link.q_max, draws)
    delays = draws.delays[:draws.written]
    return delays, n_queue_drops, n - delays.size - n_queue_drops, trace, rng


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.booleans(), st.sampled_from(TAIL_LENGTHS))
def test_departure_recurrence_is_the_reference_loop_bit_for_bit(scenario, collect_trace, lengths):
    # the tail serve alone, from packet 0: no rounding tolerance applies
    arrivals, link, p_e, seed = scenario
    ref_rng = np.random.default_rng(seed)
    ref = reference_simulate(arrivals, link, TC, p_e, ref_rng)
    ref_delays, ref_q, ref_r, ref_start, ref_attempts, ref_outcome, ref_delay = ref
    with tail_lengths(*lengths):
        delays, n_queue_drops, n_retry_drops, trace, rng = serve(arrivals, link, p_e, seed, collect_trace)

    assert delays.tobytes() == ref_delays.astype(float).tobytes()
    assert (n_queue_drops, n_retry_drops) == (ref_q, ref_r)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if collect_trace:
        assert np.array_equal(trace.start, ref_start, equal_nan=True)
        assert np.array_equal(trace.attempts, ref_attempts)
        assert trace.outcome == ref_outcome
        assert np.array_equal(trace.delay, ref_delay, equal_nan=True)


@pytest.mark.parametrize("collect_trace", [False, True])
def test_first_overflow_deep_into_a_drop_free_run(collect_trace):
    # a light Poisson stretch the Lindley pass covers, then a burst that
    # overflows a short queue, then light load again for the event loop
    rng = np.random.default_rng(21)
    light = np.cumsum(rng.exponential(40.0, 20_000))
    burst = light[-1] + np.cumsum(rng.exponential(1.0, 50))
    after = burst[-1] + np.cumsum(rng.exponential(40.0, 5_000))
    arrivals = np.concatenate((light, burst, after))
    link = LinkConfig(q_max=3)
    assert_matches_reference(arrivals, link, 0.3, 5, collect_trace)


@pytest.mark.parametrize("p_e", [0.0, 0.3])
def test_exact_ties_with_one_waiting_slot(p_e):
    # each arrival lands on the previous departure to within rounding, so
    # the loop's own float comparisons decide who waits; with retries the
    # single slot also overflows
    link = LinkConfig(q_max=1)
    atom = service_distribution(link, TC, p_e).durations[0]
    for n in (2, 50, 3000):
        arrivals = np.arange(n, dtype=float) * atom
        assert_matches_reference(arrivals, link, p_e, 3, True)


@pytest.mark.parametrize("q_max", [2, 10**6])
def test_simultaneous_arrivals_late_in_time(q_max):
    # batches of three equal instants near 1e9 ms: ties within a batch and
    # a coarse ulp(T), with a waiting room the batches overflow or never fill
    rng = np.random.default_rng(4)
    arrivals = np.repeat(1e9 + np.cumsum(rng.exponential(60.0, 2000)), 3)
    assert_matches_reference(arrivals, LinkConfig(q_max=q_max), 0.3, 9, True)


def strided(values):
    """values as every other element of a larger array: a view that is not contiguous."""
    base = np.full(2 * values.size, np.nan)   # a pass that reads a gap sees NaN
    base[::2] = values
    view = base[::2]
    assert not view.flags.c_contiguous
    return view


def run_bytes(arrivals, link, p_e, seed, collect_trace):
    """Every output of simulate and the rng state after it, as comparable values."""
    rng = np.random.default_rng(seed)
    res = simulate(arrivals, link, TC, p_e, rng, collect_trace=collect_trace)
    out = [res.delivered_delays.tobytes(), res.n_queue_drops, res.n_retry_drops, rng.bit_generator.state]
    if collect_trace:
        tr = res.trace
        out += [tr.arrival.tobytes(), tr.start.tobytes(), tr.attempts.tobytes(), tr.outcome,
                tr.delay.tobytes()]
    return out


def serve_bytes(arrivals, link, p_e, seed, collect_trace):
    """Every output of the tail serve from packet 0, as comparable values."""
    delays, n_queue_drops, n_retry_drops, trace, rng = serve(arrivals, link, p_e, seed, collect_trace)
    out = [delays.tobytes(), n_queue_drops, n_retry_drops, rng.bit_generator.state]
    if collect_trace:
        out += [trace.start.tobytes(), trace.attempts.tobytes(), trace.outcome, trace.delay.tobytes()]
    return out


def _poisson(n, rate, seed):
    return generate_arrivals(PoissonTraffic(rate=rate, horizon=n), np.random.default_rng(seed))


STRIDED_CASES = {
    # (arrivals, q_max, the packet the Lindley pass hands over at; None: inside the run)
    "overflow mid-run": (_poisson(3000, 0.06, 1), 3, None),
    # three arrivals at 0 overflow one waiting slot in the first busy period
    "overflow at packet 0": (np.concatenate((np.zeros(3), _poisson(2000, 0.06, 2))), 1, 0),
    # a waiting room as large as the run never fills
    "q_max >= n": (_poisson(1500, 0.08, 3), 1500, 1500),
}


@pytest.mark.parametrize("lengths", [TAIL_LENGTHS[0], (7, 100)])
@pytest.mark.parametrize("collect_trace", [False, True])
@pytest.mark.parametrize("case", list(STRIDED_CASES))
def test_strided_arrivals_give_the_contiguous_result_bit_for_bit(case, collect_trace, lengths):
    # simulate passes a strided view through to the tail serve, which
    # iterates it as a memoryview and cuts it into lockstep segments: it
    # must read the view's elements only
    values, q_max, stop = STRIDED_CASES[case]
    link, p_e, seed, n = LinkConfig(q_max=q_max), 0.3, 7, values.size
    durations = service_distribution(link, TC, p_e).sample_many(np.random.default_rng(seed), n)[1]
    handover = lindley_pass(values, durations, q_max)[1]
    assert 0 < handover < n if stop is None else handover == stop
    view = strided(values)
    with tail_lengths(*lengths):
        assert run_bytes(view, link, p_e, seed, collect_trace) == run_bytes(values, link, p_e, seed,
                                                                            collect_trace)
        assert serve_bytes(view, link, p_e, seed, collect_trace) == serve_bytes(values, link, p_e, seed,
                                                                                collect_trace)
        assert serve_bytes(values, link, p_e, seed, collect_trace) == reference_bytes(values, link, p_e,
                                                                                      seed, collect_trace)


def reference_bytes(arrivals, link, p_e, seed, collect_trace):
    """serve_bytes of the reference loop."""
    rng = np.random.default_rng(seed)
    delays, n_queue_drops, n_retry_drops, start, attempts, outcome, delay = reference_simulate(
        arrivals, link, TC, p_e, rng)
    out = [delays.astype(float).tobytes(), n_queue_drops, n_retry_drops, rng.bit_generator.state]
    if collect_trace:
        out += [start.tobytes(), attempts.tobytes(), outcome, delay.tobytes()]
    return out


def count_calls(monkeypatch, *names):
    """Count the calls of the given functions of the simulator, as they run."""
    calls = Counter()
    for name in names:
        def counted(*args, _real=getattr(simulator, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(simulator, name, counted)
    return calls


def bursts(link, p_e, sizes, gap=10.0):
    """Bursts of the given sizes, each at one instant, gap longest service times apart."""
    spacing = gap * service_distribution(link, TC, p_e).max_duration
    return np.repeat(spacing * np.arange(len(sizes)), sizes)


def test_segments_that_meet_at_their_first_arrival(monkeypatch):
    # bursts of 6 arrivals into two waiting slots, the queue empty between
    # them, against segments of 8: every third segment opens with a burst
    # on an empty queue, where the runs meet at once and the loop never
    # runs; the two between open inside a burst, on a full queue, and the
    # runs meet at the next burst
    link, p_e = LinkConfig(q_max=2), 0.3
    arrivals = bursts(link, p_e, [6] * 40)
    calls = count_calls(monkeypatch, "_speculate", "_event_loop")
    with tail_lengths(8, 96):
        for collect_trace in (False, True):
            calls.clear()
            assert serve_bytes(arrivals, link, p_e, 5, collect_trace) == reference_bytes(arrivals, link, p_e, 5,
                                                                                         collect_trace)
            assert calls == {"_speculate": 3, "_event_loop": 20}


def test_segments_that_never_meet_leave_the_tail_to_the_loop(monkeypatch):
    # at rho 1.5 a long waiting room never empties: the loop serves all of
    # the first block from the true state, and in every block few accepted
    # arrivals find the server idle, so the loop would walk most of each
    # row of them before one does, and it serves every later block alone
    link, p_e = LinkConfig(q_max=60), 0.3
    spec = PoissonTraffic(rate=1.5 / service_distribution(link, TC, p_e).mean(), horizon=3000)
    arrivals = generate_arrivals(spec, np.random.default_rng(2))
    calls = count_calls(monkeypatch, "_speculate", "_event_loop")
    with tail_lengths(64, 512):
        assert serve_bytes(arrivals, link, p_e, 6, True) == reference_bytes(arrivals, link, p_e, 6, True)
        # the first segment opens on an empty queue, the other 7 of the block
        # on a busy one; then 5 blocks
        assert calls == {"_speculate": 1, "_event_loop": 7 + 5}
        assert_matches_reference(arrivals, link, p_e, 6, True)


def test_a_busy_queue_carried_across_a_block_end(monkeypatch):
    # lone arrivals, then a burst across the end of the first block of 32:
    # the last segment of that block meets its speculative run at its first
    # arrival and hands that run's state, the burst's three packets, to the
    # next block, which opens on a full queue
    link, p_e = LinkConfig(q_max=2), 0.3
    arrivals = bursts(link, p_e, [1] * 28 + [12] + [1] * 30)
    ref_outcome = reference_simulate(arrivals, link, TC, p_e, np.random.default_rng(4))[5]
    assert "queue_drop" not in ref_outcome[28:31] and ref_outcome[31:40] == ["queue_drop"] * 9
    calls = count_calls(monkeypatch, "_speculate", "_event_loop")
    with tail_lengths(8, 32):
        for collect_trace in (False, True):
            calls.clear()
            assert serve_bytes(arrivals, link, p_e, 4, collect_trace) == reference_bytes(arrivals, link, p_e, 4,
                                                                                         collect_trace)
            # three blocks, and only the segment that opens the second needs the loop
            assert calls == {"_speculate": 3, "_event_loop": 1}


def test_the_rest_past_the_last_whole_segment_is_one_stretch_of_the_loop(monkeypatch):
    # 250 arrivals in blocks of 96 and segments of 8: the last block holds 7
    # whole segments, 56 arrivals, and a rest of 2.  Bursts of 8 fill the
    # segments, each opening on an empty queue, where the runs meet at once;
    # the last burst, of 4, straddles the end of the last whole segment, so
    # the rest opens on a busy queue and its last arrival meets a full one
    link, p_e = LinkConfig(q_max=2), 0.3
    arrivals = bursts(link, p_e, [8] * 30 + [6, 4])
    ref_outcome = reference_simulate(arrivals, link, TC, p_e, np.random.default_rng(8))[5]
    assert "queue_drop" not in ref_outcome[246:249] and ref_outcome[249] == "queue_drop"
    calls = count_calls(monkeypatch, "_speculate", "_event_loop")
    with tail_lengths(8, 96):
        for collect_trace in (False, True):
            calls.clear()
            assert serve_bytes(arrivals, link, p_e, 8, collect_trace) == reference_bytes(arrivals, link, p_e, 8,
                                                                                         collect_trace)
            # a speculation per block, and the loop serves the rest alone, in one call
            assert calls == {"_speculate": 3, "_event_loop": 1}


@pytest.mark.parametrize("second, counts", [
    ([1] * 32, {"_speculate": 3, "_event_loop": 4}),        # every row opens on an idle server
    ([8] * 4, {"_speculate": 3, "_event_loop": 4}),
    ([11, 11, 10], {"_speculate": 2, "_event_loop": 5}),    # walks 0 + 3 + 6 + 8 = 17 of 32
    ([15, 9, 8], {"_speculate": 3, "_event_loop": 4}),      # 0 + 7 + 8 + 0 = 15
    ([15, 10, 7], {"_speculate": 2, "_event_loop": 5}),     # 0 + 7 + 8 + 1 = 16: half
    ([12, 17, 1, 1, 1], {"_speculate": 2, "_event_loop": 5}),   # 0 + 4 + 8 + 5 = 17, though 5 found it idle
])
def test_speculation_resumes_once_the_queue_empties_again(monkeypatch, second, counts):
    # blocks of 32 and segments of 8, 16 waiting slots.  A burst of 32
    # overflows the first block: its first segment meets its run at once,
    # and the loop serves the 3 others, which open on a busy queue.  Its
    # 17 accepted arrivals hold two rows of 8, and only the first row
    # opens on an idle server, so the loop would walk 8 of 16, half, and
    # serves the second block whole.  The second block's bursts are
    # accepted whole; where the loop would walk less than half of it, from
    # the first arrival of each row to the first that found the server
    # idle, the third block is speculated again; else the loop serves it
    # whole too.  The lone arrivals of the third block each find the
    # server idle, so the fourth is speculated; a speculated block of lone
    # arrivals meets its runs at the first arrival of every segment, where
    # the loop never runs
    link, p_e = LinkConfig(q_max=16), 0.3
    arrivals = bursts(link, p_e, [32] + second + [1] * 64)
    calls = count_calls(monkeypatch, "_speculate", "_event_loop")
    with tail_lengths(8, 32):
        for collect_trace in (False, True):
            calls.clear()
            assert serve_bytes(arrivals, link, p_e, 9, collect_trace) == reference_bytes(arrivals, link, p_e, 9,
                                                                                         collect_trace)
            assert calls == counts


@pytest.mark.parametrize("lengths", TAIL_LENGTHS)
@pytest.mark.parametrize("p_e", [0.0, 0.45])
def test_departures_that_land_on_arrivals(lengths, p_e):
    # on a lattice every sum is exact: arrivals spaced by the shortest
    # service time meet the departure before them exactly, where the queue
    # counts as empty; with retries the one waiting slot also overflows
    link = LinkConfig(l_d=9, n_max_tries=3, d_retry=0.5, q_max=1)
    dist = service_distribution(link, LATTICE_TC, p_e)
    arrivals = np.arange(1500) * dist.durations[0]
    ref = reference_simulate(arrivals, link, LATTICE_TC, p_e, np.random.default_rng(3))
    start, attempts, outcome = ref[3], ref[4], ref[5]
    served = np.flatnonzero(np.array(outcome) != "queue_drop")
    atom = np.where(np.array(outcome)[served] == "delivered", attempts[served] - 1, link.n_max_tries)
    ends = start[served] + np.array(dist.durations)[atom]
    assert np.any(ends[:-1] == arrivals[served[1:]])   # ties with the next packet served
    assert ("queue_drop" in outcome) == (p_e > 0.0)
    with tail_lengths(*lengths):
        assert_loop_bit_for_bit(arrivals, link, p_e, lambda: np.random.default_rng(3), LATTICE_TC)


ONOFF_SOURCES = (
    OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.02),
    OnOffTraffic(lam_on_off=0.05, mu_off_on=0.04, rate=0.1),
    OnOffTraffic(lam_on_off=0.001, mu_off_on=0.5, rate=3.0),     # ~3000 packets per cycle
)
# ~500 cycles per packet, most of them silent: 300 packets already span two blocks
SPARSE_SOURCE = OnOffTraffic(lam_on_off=5.0, mu_off_on=0.3, rate=0.01)
# one On sojourn emits every packet; past a peak rate near 1e17 the emission
# counts of a cycle no longer fit int64, at 1e200 not even a float's square,
# and at 1e308 the period is subnormal and the On time over it overflows
HUGE_PEAK_SOURCES = tuple(OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=rate)
                          for rate in (1e15, 1e17, 1e19, 1e200, 1e308))


def test_emission_count_exact_near_multiples_of_the_period():
    # at and one ulp either side of k * period, floor(on_time / period)
    # misses by one on a large share of points
    rng = np.random.default_rng(3)
    for rate in rng.uniform(0.001, 5.0, 20):
        period = 1.0 / rate
        multiples = rng.integers(1, 10**6, 2000) * period
        on_time = np.concatenate((multiples, np.nextafter(multiples, 0.0),
                                  np.nextafter(multiples, np.inf)))
        k = _emitted_by(on_time, period).astype(float)
        assert np.all(k * period <= on_time)
        assert np.all((k + 1.0) * period > on_time)


@pytest.mark.parametrize("spec, n", [(spec, n) for spec in ONOFF_SOURCES for n in (1, 2, 100_000)]
                         + [(SPARSE_SOURCE, n) for n in (1, 2, 300)]
                         + [(spec, 2000) for spec in HUGE_PEAK_SOURCES])
def test_onoff_arrivals_bit_identical_to_scalar_loop(spec, n):
    for seed in (0, 7):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = reference_onoff(spec, ref_rng, n)
        got = generate_arrivals(OnOffTraffic(spec.lam_on_off, spec.mu_off_on, spec.rate, n), rng)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def lindley_pass(arrivals, durations, q_max, drawn=None):
    """The Lindley pass over given service times: (waits of packets [0, stop), stop).

    The pass must draw each chunk once, in order, and sink the waits of
    the chunk it drew last; drawn, when given, collects each chunk's
    (lo, hi).
    """
    drawn = [] if drawn is None else drawn
    waits = np.full(arrivals.size, np.nan)

    def draw(lo, hi):
        assert lo == (drawn[-1][1] if drawn else 0) and lo < hi
        drawn.append((lo, hi))
        return durations[lo:hi]

    def sink(lo, w):
        assert lo == drawn[-1][0] and w.size <= drawn[-1][1] - lo
        waits[lo:lo + w.size] = w

    stop = simulator._drop_free_waits(arrivals, q_max, draw, sink)
    assert not np.isnan(waits[:stop]).any()
    return waits[:stop], stop


def reference_drop_free_waits(arrivals, durations, q_max):
    """The Lindley pass as it was: every packet's busy-period start and err, overflow by binary search."""
    n = arrivals.size
    waits = np.empty(n)
    check = q_max < n - 1
    departures = np.empty(n) if check else None
    c_last, x_min, start = 0.0, math.inf, 0
    lo, size = 0, simulator._FIRST_CHUNK
    while lo < n:
        hi = min(lo + size, n)
        a = arrivals[lo:hi]
        c = np.empty(hi - lo + 1)
        c[0] = c_last
        c[1:] = durations[lo:hi]
        np.cumsum(c, out=c)
        x = c[:-1] - a
        m = np.minimum.accumulate(x)
        np.minimum(m, x_min, out=m)
        ulp = float(np.spacing(2.0 * (c[-1] + max(abs(arrivals[0]), abs(a[-1])))))
        gap = np.concatenate(([x_min], m[:-1])) - x
        idx = np.arange(lo, hi)
        opened = np.maximum.accumulate(np.where(gap > 5.0 * (hi + 8) * ulp, idx, start))
        err = (idx - opened + 9) * ulp
        w = waits[lo:hi]
        np.subtract(x, m, out=w)
        w[w <= 2.0 * err] = 0.0
        if check:
            dep = departures[:hi]
            np.subtract(c[1:], m, out=dep[lo:])
            ahead = idx - np.searchsorted(dep, a - 5.0 * err, side="right")
            full = np.flatnonzero(ahead > q_max)
            if full.size:
                stop = int(opened[full[0]])
                return waits[:stop], stop
        c_last, x_min, start = float(c[-1]), float(m[-1]), int(opened[-1])
        lo, size = hi, min(2 * size, simulator._MAX_CHUNK)
    return waits, n


def reference_sample_many(dist, rng, n):
    """The atom draw as it was: an intp count of partial sums, then three gathers."""
    cum = np.cumsum(dist.probs)
    u = rng.random(n)
    idx = np.zeros(n, dtype=np.intp)
    for c in cum[:-1].tolist():
        idx += u >= c
    return dist.attempts[idx], dist.duration_array[idx], dist.delivered[idx]


# the Lindley pass's chunks hold 1024, 2048, 4096, ... packets, so the first
# ones end at 1024, 3072 and 7168; lengths at and either side of those and
# of the chunk sizes themselves
CHUNK_EDGE_SIZES = [end + d for end in (1024, 2048, 3072, 4096, 7168) for d in (-1, 0, 1)]


@st.composite
def lindley_inputs(draw):
    """Arrivals of any kind at loads either side of 1, service draws, and a waiting room."""
    n = draw(st.one_of(st.sampled_from(CHUNK_EDGE_SIZES), st.integers(1, 7200)))
    q_max = draw(st.sampled_from([1, max(1, n // 3), max(1, n - 2), max(1, n - 1), 10**6,
                                  draw(st.integers(2, 40))]))
    link = LinkConfig(n_max_tries=draw(st.integers(1, 5)), d_retry=draw(st.sampled_from([0.0, 12.5])))
    p_e = draw(st.sampled_from([0.0, 0.3, 1.0]))
    dist = service_distribution(link, TC, p_e)
    mean_t = dist.mean()
    rho = draw(st.floats(0.3, 1.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tie", "batch", "poisson", "onoff"]))
    if kind == "tie":
        # spaced by one service atom exactly: with p_e = 0 every departure lands on an arrival
        arrivals = np.arange(n, dtype=float) * dist.durations[0]
    elif kind == "batch":
        # three equal instants at a time, late enough for a coarse ulp
        arrivals = np.repeat(1e9 + np.cumsum(rng.exponential(3.0 * mean_t / rho, n // 3 + 1)), 3)[:n]
    elif kind == "poisson":
        arrivals = generate_arrivals(PoissonTraffic(rate=rho / mean_t, horizon=n), rng)
    else:
        switch = 1.0 / (4.0 * mean_t)
        spec = OnOffTraffic(lam_on_off=switch, mu_off_on=switch, rate=2.0 * rho / mean_t, horizon=n)
        arrivals = generate_arrivals(spec, rng)
    return arrivals, dist.sample_many(rng, n)[1], q_max


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lindley_inputs())
def test_lindley_pass_is_the_reference_bit_for_bit(inputs):
    arrivals, durations, q_max = inputs
    want, want_stop = reference_drop_free_waits(arrivals, durations, q_max)
    got, stop = lindley_pass(arrivals, durations, q_max)
    assert stop == want_stop
    assert got.tobytes() == want.tobytes()


# Unit service times from t = 0, and each later packet arrives half a unit
# before the one ahead of it departs: packets 0-1023, the first chunk, form
# one busy period, and the last sits at p = 1024, where the rounding margin
# (p + 8) * ulp(T) is the largest of the chunk.  With T = 2 * (1024 + ~1023),
# ulp(T) = 2**-41.
CHUNK_ULP = 2.0**-41


def one_busy_chunk(last):
    n = simulator._FIRST_CHUNK
    arrivals = np.arange(n) - 0.5
    arrivals[0] = 0.0
    arrivals[-1] = last
    assert np.spacing(2.0 * (n + last)) == CHUNK_ULP
    return arrivals, np.ones(n)


@pytest.mark.parametrize("ulps, kept", [(2062, False), (2066, True)])
def test_wait_at_the_rounding_cut_of_a_chunks_last_packet(ulps, kept):
    # the cut 2 * (p + 8) * ulp(T) is 2064 ulps there
    arrivals, durations = one_busy_chunk(1023.0 - ulps * CHUNK_ULP)
    waits, stop = lindley_pass(arrivals, durations, 10**6)
    assert stop == arrivals.size
    assert waits[-1] == (ulps * CHUNK_ULP if kept else 0.0)
    assert waits.tobytes() == reference_drop_free_waits(arrivals, durations, 10**6)[0].tobytes()


@pytest.mark.parametrize("ulps, overflows", [(5150, True), (5170, False)])
def test_overflow_margin_at_a_chunks_last_packet(ulps, overflows):
    # one waiting slot: the last arrival counts the packet two places back,
    # which departs at 1022, as not gone unless it left 5 * (p + 8) = 5160
    # ulps before the arrival
    arrivals, durations = one_busy_chunk(1022.0 + ulps * CHUNK_ULP)
    waits, stop = lindley_pass(arrivals, durations, 1)
    assert stop == (0 if overflows else arrivals.size)
    want, want_stop = reference_drop_free_waits(arrivals, durations, 1)
    assert stop == want_stop and waits.tobytes() == want.tobytes()


@pytest.mark.parametrize("arrivals, q_max, stop", [
    ([0.0, 0.0, 0.0, 100.0, 200.0], 1, 0),      # arrival 2 meets two packets, one slot
    ([0.0, 0.0, 0.0, 100.0, 200.0], 2, 5),      # two slots hold them
    ([0.0, 0.0, 1.5, 100.0, 200.0], 1, 5),      # packet 0 left at 1: one ahead, not full
    ([100.0, 200.0, 300.0, 300.0, 300.0], 1, 2),  # full in the busy period opened by packet 2
])
def test_first_arrival_that_can_meet_a_full_queue(arrivals, q_max, stop):
    # unit service times; the earliest arrival that can overflow is q_max + 1
    arrivals = np.array(arrivals)
    durations = np.ones(arrivals.size)
    waits, got = lindley_pass(arrivals, durations, q_max)
    want, want_stop = reference_drop_free_waits(arrivals, durations, q_max)
    assert got == want_stop == stop and waits.tobytes() == want.tobytes()


@pytest.mark.parametrize("ulps, kept", [(18, False), (22, True)])
def test_wait_screened_with_the_chunk_margin_decided_with_the_packets_own(ulps, kept):
    # unit service times; packet 5 opens a busy period at 10 and departs at
    # 11, and packet 6 waits the given ulps: inside the chunk's screen
    # 2 * (8 + 8) = 32 ulps, against its own cut 2 * (2 + 8) = 20 ulps
    ulp = 2.0**-47
    arrivals = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 11.0 - ulps * ulp, 20.0])
    durations = np.ones(arrivals.size)
    assert np.spacing(2.0 * (arrivals.size + arrivals[-1])) == ulp
    waits, stop = lindley_pass(arrivals, durations, 10**6)
    assert waits[6] == (ulps * ulp if kept else 0.0)
    assert waits.tobytes() == reference_drop_free_waits(arrivals, durations, 10**6)[0].tobytes()


def test_overflow_screened_with_the_chunk_margin_decided_with_the_packets_own():
    # unit service times, one slot; packet 5 opens a busy period at 10 and
    # departs at 11, and arrival 7 comes 70 ulps later: inside the chunk's
    # screen 5 * (9 + 8) = 85 ulps, outside its own margin 5 * (3 + 8) = 55
    # ulps, so packet 6 alone is ahead of it
    ulp = 2.0**-47
    arrivals = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 10.0, 11.0 + 70 * ulp, 20.0])
    durations = np.ones(arrivals.size)
    assert np.spacing(2.0 * (arrivals.size + arrivals[-1])) == ulp
    waits, stop = lindley_pass(arrivals, durations, 1)
    want, want_stop = reference_drop_free_waits(arrivals, durations, 1)
    assert stop == want_stop == arrivals.size and waits.tobytes() == want.tobytes()


def wide_then_burst(link, p_e, n_wide, q_max):
    """Arrivals that never wait, then a burst from packet n_wide that overflows q_max, then wide again.

    The wide arrivals come three longest service times apart, so packet
    n_wide opens a busy period; the burst's come half the shortest
    service time apart, so it stays busy until some arrival meets
    q_max + 1 packets, at most 2 * q_max + 4 arrivals in.
    """
    dist = service_distribution(link, TC, p_e)
    wide, burst = 3.0 * dist.max_duration, 0.5 * dist.durations[0]
    head = np.arange(n_wide) * wide
    rush = n_wide * wide + np.arange(2 * q_max + 100) * burst
    calm = rush[-1] + (1.0 + np.arange(500)) * wide
    return np.concatenate((head, rush, calm))


def rng_state(rng):
    """A generator's state as one comparable string; MT19937's holds an array."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


HANDOVER_CASES = {
    # (arrivals, q_max, stop, start of the chunk that finds the overflow)
    "stop in an earlier chunk": (wide_then_burst(LinkConfig(), 0.3, 2000, 1200), 1200, 2000, 3072),
    "stop on a chunk boundary": (wide_then_burst(LinkConfig(), 0.3, 3072, 400), 400, 3072, 3072),
    "stop on the boundary of an earlier chunk": (wide_then_burst(LinkConfig(), 0.3, 1024, 2100), 2100,
                                                 1024, 3072),
    "stop 0": (np.concatenate((np.zeros(3), 100.0 + np.arange(2000) * 60.0)), 1, 0, 0),
    "stop 0 in an earlier chunk": (wide_then_burst(LinkConfig(), 0.3, 0, 1030), 1030, 0, 1024),
    # one busy period of simultaneous arrivals: the last meets q_max + 1 packets only at n - 2
    "q_max = n - 2": (np.zeros(3000), 2998, 0, 1024),
    "q_max = n - 1": (np.zeros(3000), 2999, 3000, 1024),
    "q_max = n": (np.zeros(3000), 3000, 3000, 1024),
}


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("case", list(HANDOVER_CASES))
def test_handover_redraws_the_event_loops_draws_bit_for_bit(case, bit_generator):
    # the Lindley pass draws outcomes chunk by chunk and sinks delays as it
    # goes; at an overflow the simulator rewinds the rng to the chunk that
    # holds stop and redraws from there, taking back what it sank past stop.
    # No packet waits before stop, or in a busy period of simultaneous
    # arrivals from 0, so every delay, count, trace row and the rng state
    # must be the event loop's bit for bit
    arrivals, q_max, stop, found_at = HANDOVER_CASES[case]
    link, p_e, n = LinkConfig(q_max=q_max), 0.3, arrivals.size

    def make_rng():
        return np.random.Generator(bit_generator(11))

    drawn = []
    durations = service_distribution(link, TC, p_e).sample_many(make_rng(), n)[1]
    assert lindley_pass(arrivals, durations, q_max, drawn)[1] == stop
    assert drawn[-1][0] == found_at
    ref_outcome = assert_loop_bit_for_bit(arrivals, link, p_e, make_rng)
    assert ("queue_drop" in ref_outcome) == (stop < n)


def assert_loop_bit_for_bit(arrivals, link, p_e, make_rng, tc=TC):
    """simulate against the event loop, with and without a trace: every output and the rng state.

    make_rng gives a fresh generator in the same state on each call.
    Returns the loop's outcomes.
    """
    ref_rng = make_rng()
    ref_delays, ref_q, ref_r, ref_start, ref_attempts, ref_outcome, ref_delay = reference_simulate(
        arrivals, link, tc, p_e, ref_rng)
    for collect_trace in (False, True):
        rng = make_rng()
        got = simulate(arrivals, link, tc, p_e, rng, collect_trace=collect_trace)
        assert got.delivered_delays.tobytes() == ref_delays.astype(float).tobytes()
        assert (got.n_delivered, got.n_queue_drops, got.n_retry_drops) == (ref_delays.size, ref_q, ref_r)
        assert rng_state(rng) == rng_state(ref_rng)
        if collect_trace:
            tr = got.trace
            assert tr.start.tobytes() == ref_start.tobytes()
            assert tr.attempts.tobytes() == ref_attempts.tobytes()
            assert tr.delay.tobytes() == ref_delay.tobytes()
            assert tr.outcome == ref_outcome
    return ref_outcome


def wide_then_rush(link, p_e, n_wide, n_rush, n_calm):
    """n_wide arrivals that never wait, n_rush at one instant, then n_calm wide again.

    Packet n_wide opens a busy period, so with more than q_max + 1 in the
    rush the Lindley pass hands over there, and every arrival of the rush
    after the first q_max + 1 is dropped.
    """
    wide = 3.0 * service_distribution(link, TC, p_e).max_duration
    head = np.arange(n_wide) * wide
    calm = (n_wide + 1.0 + np.arange(n_calm)) * wide
    return np.concatenate((head, np.full(n_rush, n_wide * wide), calm))


# (block size, arrivals before the rush, in the rush, after it), two waiting slots
BLOCK_EDGE_CASES = {
    # the drops fill at least one of the tail's blocks whole, and straddle the ends of blocks
    **{f"drops across block ends, stop in the first chunk, blocks of {b}": (b, 300, 2 * b + 4, 300)
       for b in (1, 7, 64)},
    **{f"drops across block ends, stop in a later chunk, blocks of {b}": (b, 1500, 2 * b + 4, 300)
       for b in (1, 7, 64)},
    "a tail shorter than one block of 7": (7, 1500, 4, 2),
    "a tail shorter than one block of 64": (64, 1500, 10, 20),
}


@pytest.mark.parametrize("segment", [simulator._SEGMENT, 3])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("case", list(BLOCK_EDGE_CASES))
def test_tail_blocks_serve_the_event_loops_run_bit_for_bit(monkeypatch, case, bit_generator, segment):
    # the tail is served in blocks of _MAX_CHUNK arrivals, each drawing the
    # outcomes of its own; with small blocks, runs of drops cross block
    # and segment ends and whole blocks are dropped.  No packet waits
    # before stop, so everything must be the event loop's bit for bit
    block, n_wide, n_rush, n_calm = BLOCK_EDGE_CASES[case]
    monkeypatch.setattr(simulator, "_MAX_CHUNK", block)
    monkeypatch.setattr(simulator, "_SEGMENT", segment)
    link, p_e = LinkConfig(q_max=2), 0.3
    arrivals = wide_then_rush(link, p_e, n_wide, n_rush, n_calm)
    n = arrivals.size

    def make_rng():
        return np.random.Generator(bit_generator(13))

    durations = service_distribution(link, TC, p_e).sample_many(make_rng(), n)[1]
    assert lindley_pass(arrivals, durations, link.q_max)[1] == n_wide
    dropped = np.array(assert_loop_bit_for_bit(arrivals, link, p_e, make_rng)) == "queue_drop"
    tail = dropped[n_wide:]
    assert np.array_equal(np.flatnonzero(tail), np.arange(3, n_rush))   # the rush beyond 3 packets
    if n_rush > 2 * block:
        ends = np.arange(block, tail.size, block)    # block ends within the tail
        assert np.any(tail[ends - 1] & tail[ends])   # a drop on each side of one
        whole = tail[:tail.size // block * block].reshape(-1, block)
        assert whole.all(axis=1).any()               # a block of drops only
    else:
        assert tail.size < block


# Timing on a lattice of 1/4 ms: with l_d = 9 a frame takes 2 ms, and every
# service time is a multiple of 1/4 ms.  With arrivals on a lattice of 1/8 ms
# every sum the Lindley pass and the event loop take is exact, so the pass's
# waits are the loop's bit for bit, not only within its rounding bound
LATTICE_TC = TimingConstants(t_spi=0.5, t_tr=0.25, t_bo=1.0, t_ack=0.5, t_wait_ack=2.0,
                             frame_overhead=7, phy_rate=64.0)


@pytest.mark.parametrize("q_max, lengths", [
    (10**6, None),  # drop-free: the Lindley pass serves every packet
    (3, (simulator._SEGMENT, 300)),  # overflows: the tail is served in blocks under the first chunk
    (3, (7, 300)),  # and in segments of 7
])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("atoms", range(1, 9))
def test_service_times_by_atom_index_are_the_event_loops_bit_for_bit(monkeypatch, atoms,
                                                                     bit_generator, q_max, lengths):
    # service times and trace attempts are taken through an intp index
    # buffer sized by the largest chunk or block; laws of 2-8 atoms from
    # n_max_tries 1-7, and of 1 when p_e = 0 leaves only the first
    if lengths is not None:
        monkeypatch.setattr(simulator, "_SEGMENT", lengths[0])
        monkeypatch.setattr(simulator, "_MAX_CHUNK", lengths[1])
    link = LinkConfig(l_d=9, n_max_tries=max(atoms - 1, 1), d_retry=0.5, q_max=q_max)
    p_e = 0.0 if atoms == 1 else 0.45
    dist = service_distribution(link, LATTICE_TC, p_e)
    assert all(d * 4.0 == int(d * 4.0) for d in dist.durations)
    poisson = generate_arrivals(PoissonTraffic(rate=0.9 / dist.mean(), horizon=5000),
                                np.random.default_rng(atoms))
    arrivals = np.round(poisson * 8.0) / 8.0

    def make_rng():
        return np.random.Generator(bit_generator(atoms))

    outcome = assert_loop_bit_for_bit(arrivals, link, p_e, make_rng, LATTICE_TC)
    assert ("queue_drop" in outcome) == (q_max == 3)


# Unit service times: with l_d = 1 and p_e = 0 each packet takes 0.5 + 0.25 + 0.25 ms
UNIT_TC = TimingConstants(t_spi=0.5, t_tr=0.0, t_bo=0.0, t_ack=0.25, t_wait_ack=0.25,
                          frame_overhead=0, phy_rate=32.0)
UNIT_LINK = LinkConfig(l_d=1, n_max_tries=1, q_max=10**6)


def carried_busy_period(p, ulps):
    """4000 arrivals: one busy period from packet 1000 to the end, packet p waiting ulps ulps.

    Packets 0-999 come 3 ms apart and never wait; packet 1000 opens a busy
    period at 3000 ms, and each later packet arrives half a unit before the
    one ahead of it departs, so the chunk [1024, 3072) holds no idle time at
    all.  Packet p, in the last chunk [3072, 4000), arrives ulps ulps of that
    chunk's T before its predecessor departs.
    """
    arrivals = np.concatenate((3.0 * np.arange(1000), 3000.0 + np.arange(3000) - 0.5))
    arrivals[1000] = 3000.0
    ulp = np.spacing(2.0 * (4000 + arrivals[-1]))
    assert ulp == 2.0**-38
    arrivals[p] = 3000.0 + (p - 1000) - ulps * ulp
    return arrivals


@pytest.mark.parametrize("ulps, kept", [(5016, False), (5020, True)])
def test_busy_period_carried_across_a_chunk_with_no_idle_time(monkeypatch, ulps, kept):
    # packet 3500 sits at p = 2501 of the busy period opened by packet 1000
    # in the first chunk, so its wait counts as none up to 2 * (p + 8) =
    # 5018 ulps.  The wait lies inside the chunk's screen, 2 * (4000 + 8 -
    # 1000) = 6016 ulps, so this chunk alone lists its busy periods; the
    # two before take the last busy-period start from their ends, and the
    # start must come through the chunk with no idle time: from 0 the cut
    # would be 7018 ulps, and from 1024 or later under 4970
    p = 3500
    arrivals = carried_busy_period(p, ulps)
    opened, last_opened = [], []
    real_opened, real_last_opened = simulator._opened, simulator._last_opened

    def spy_opened(j, opens):
        opened.append(j.tolist())
        return real_opened(j, opens)

    def spy_last_opened(*args):
        last_opened.append(real_last_opened(*args))
        return last_opened[-1]

    monkeypatch.setattr(simulator, "_opened", spy_opened)
    monkeypatch.setattr(simulator, "_last_opened", spy_last_opened)

    def make_rng():
        return np.random.default_rng(4)

    if kept:
        assert_loop_bit_for_bit(arrivals, UNIT_LINK, 0.0, make_rng, UNIT_TC)
    else:
        ref_delays = reference_simulate(arrivals, UNIT_LINK, UNIT_TC, 0.0, make_rng())[0]
        got = simulate(arrivals, UNIT_LINK, UNIT_TC, 0.0, make_rng())
        assert ref_delays[p] == 1.0 + ulps * 2.0**-38 and got.delivered_delays[p] == 1.0
        ref_delays[p] = 1.0
        assert got.delivered_delays.tobytes() == ref_delays.tobytes()
    assert opened[0] == [p] and opened.count([p]) == len(opened)
    assert last_opened[:2] == [1000, 1000]


def assert_same_draws(dist, n, seed):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_sample_many(dist, ref_rng, n)
    got = dist.sample_many(rng, n)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0.0),
       st.booleans(), st.sampled_from([1, 2, 1000] + CHUNK_EDGE_SIZES), st.integers(0, 2**32 - 1))
def test_atom_draw_is_the_reference_bit_for_bit(weights, tiny_last, n, seed):
    probs = np.asarray(weights) / sum(weights)
    if tiny_last:
        # partial sums before a last atom this small often round above 1
        probs = np.append(probs, 1e-17)
    if probs.size < 2:
        probs = np.append(probs, 0.0)
    dist = ServiceDistribution(durations=np.arange(1.0, probs.size + 1.0), probs=probs,
                               p_e=0.5, n_max_tries=probs.size - 1)
    assert_same_draws(dist, n, seed)


def test_atom_draw_past_a_byte_of_attempts():
    # 300 tries: the atom count no longer fits a byte and takes two
    dist = service_distribution(LinkConfig(n_max_tries=300), TC, 0.99)
    attempts, _, delivered = assert_same_draws(dist, 20_000, 8)
    assert attempts.max() == 300 and np.any(attempts[delivered] > 255) and not np.all(delivered)


def horizontal_distance(ac, x, sc):
    """Largest horizontal gap between the raised envelope ac + x and the service curve.

    For affine curves under stability (ac.rate <= sc.rate) this is (burst + x) / R.
    """
    assert x >= 0.0 and ac.rate <= sc.rate
    return (ac.burst + x) / sc.rate


def delay_bound_at(ac, sc, x):
    """One point of the delay tail bound: (delay, probability) at slack x bits."""
    delay = horizontal_distance(ac, x, sc)
    if ac.deterministic:
        prob = math.exp(-sc.decay * x)
    else:
        prob = convolve_exponential_bounds(ac.decay, sc.decay, x)
    return delay, min(max(prob, 0.0), 1.0)


def reference_bound_prob(traffic, dist, packet_bits, theta, delay):
    """Bound at one (theta, delay), curves built for the pair; inf when theta is infeasible."""
    if theta * dist.max_duration > 700.0:
        return math.inf  # the service-time MGF would overflow
    if isinstance(traffic, PoissonTraffic) and theta * packet_bits > 700.0:
        return math.inf  # so would the MGF of one packet's bits
    if math.log(dist.mgf(theta)) <= 0.0:
        return math.inf  # the MGF rounds to 1: no service curve
    sc = service_curve(dist, packet_bits, theta)
    ac = arrival_curve_for(traffic, packet_bits, theta)
    if ac.rate > sc.rate:
        return math.inf
    # the smallest slack whose horizontal distance reaches the delay
    x = delay * sc.rate - ac.burst
    if x < 0.0:
        return 1.0
    reached, prob = delay_bound_at(ac, sc, x)
    assert reached == pytest.approx(delay, rel=1e-12)
    return prob


KINDS = ("periodic", "poisson", "onoff")
STOCHASTIC = ("poisson", "onoff")   # the kinds whose envelopes have a violation bound


@st.composite
def bound_points(draw, kinds=KINDS):
    """A service law, traffic of one of kinds at loads either side of 1, an exponent and a delay."""
    link = LinkConfig(l_d=draw(st.integers(1, 114)), n_max_tries=draw(st.integers(1, 8)),
                      d_retry=draw(st.sampled_from([0.0, 12.5, 30.0])))
    p_e = draw(st.sampled_from([0.0, draw(st.floats(0.01, 0.9)), 1.0]))
    dist = service_distribution(link, TC, p_e)
    mean_t = dist.mean()
    rho = draw(st.floats(0.1, 1.2))
    kind = draw(st.sampled_from(kinds))
    if kind == "periodic":
        traffic = PeriodicTraffic(t_pit=mean_t / rho, horizon=10)
    elif kind == "poisson":
        traffic = PoissonTraffic(rate=rho / mean_t, horizon=10)
    else:
        switch = 1.0 / (draw(st.floats(1.0, 10.0)) * mean_t)
        traffic = OnOffTraffic(lam_on_off=switch, mu_off_on=switch, rate=2.0 * rho / mean_t,
                               horizon=10)
    theta = 10.0 ** draw(st.floats(-6.0, 0.5))
    delay = draw(st.floats(0.1, 40.0)) * mean_t
    return traffic, dist, 8.0 * link.l_d, theta, delay


@settings(max_examples=300, deadline=None)
@given(bound_points())
def test_bound_prob_is_the_reference_composition_bit_for_bit(point):
    traffic, dist, packet_bits, theta, delay = point
    want = reference_bound_prob(traffic, dist, packet_bits, theta, delay)
    got = snc._bound_at(snc._curve_builder(traffic, dist, packet_bits)(theta))(delay)
    assert got == want and type(got) is type(want)


def reference_golden_min(f, lo, hi, iters=40):
    """Golden-section minimisation on [lo, hi], sampled on a log scale."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(math.exp(d))
    mid = math.exp(0.5 * (a + b))
    return mid, f(mid)


def reference_edge(feasible, lo, hi):
    """Bisection in log theta from a feasible lo to an infeasible hi, down to adjacent floats."""
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            mid = lo + 0.5 * (hi - lo)
            if not lo < mid < hi:
                return lo
        if feasible(mid):
            lo = mid
        else:
            hi = mid


def reference_optimize_delay_ccdf(traffic, dist, packet_bits, delay_grid, thetas, edge=True):
    """The optimiser's scan and refinement, curves built anew for every (delay, theta) pair.

    The scan takes the stable grid exponents and the feasible edge above
    them, and refines only a minimum with a candidate on each side and a
    bound below 1.  edge=False is the rule before the scan reached the
    edge: the stable grid alone, every bracket refined.
    """
    def bound(theta, delay):
        return reference_bound_prob(traffic, dist, packet_bits, theta, delay)

    def feasible(theta):
        return bound(theta, delays[0]) != math.inf

    delays = [float(d) for d in delay_grid]
    grid = sorted(float(t) for t in thetas)
    stable = [t for t in grid if feasible(t)]
    if not stable:
        raise snc.Overload("no stable exponent in the theta grid")
    if edge:
        hi = next((t for t in grid if t > stable[-1]), 2.0 * 700.0 / dist.max_duration)
        if (top := reference_edge(feasible, stable[-1], hi)) > stable[-1]:
            stable.append(top)
    points = []
    best_prob, best_theta = math.inf, None
    for d in delays:
        probs = [bound(t, d) for t in stable]
        i = int(np.argmin(probs))
        prob, theta = probs[i], stable[i]
        lo, hi = stable[max(i - 1, 0)], stable[min(i + 1, len(stable) - 1)]
        interior = 0 < i < len(stable) - 1 and prob < 1.0
        if (interior or not edge) and lo < hi:
            t_ref, p_ref = reference_golden_min(lambda t: bound(t, d), lo, hi)
            if p_ref < prob:
                prob, theta = p_ref, t_ref
        if prob < best_prob:
            best_prob, best_theta = prob, theta
        if best_prob >= 1.0:
            points.append(snc.DelayBound(delay=d, prob=1.0, theta=None))
        else:
            points.append(snc.DelayBound(delay=d, prob=best_prob, theta=best_theta))
    return snc.DelayCcdf(points=tuple(points))


def typed_bits(point):
    """Each field of a DelayBound as (type, exact hex digits); None stays None."""
    return [(type(v), None if v is None else float.hex(v))
            for v in (point.delay, point.prob, point.theta)]


@st.composite
def optimiser_inputs(draw, kinds=KINDS):
    """A bound point's service law and traffic of one of kinds, a delay grid and a theta grid."""
    traffic, dist, packet_bits, _, _ = draw(bound_points(kinds))
    mean_t = dist.mean()
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        # evenly spaced, as the CLI's grids are: neighbours share brackets
        step = draw(st.floats(0.05, 0.5))
        delays = [mean_t * step * (k + 1) for k in range(n)]
    else:
        delays = [mean_t * f for f in draw(st.lists(st.floats(0.1, 40.0), min_size=1, max_size=n))]
    delays = sorted(set(delays))
    if draw(st.booleans()):
        thetas = ThetaGridSpec().values()
    else:
        thetas = draw(st.lists(st.floats(-6.0, 0.5).map(lambda e: 10.0 ** e), min_size=1, max_size=40))
        thetas = draw(st.permutations(thetas + draw(st.lists(st.sampled_from(thetas), max_size=4))))
    return traffic, dist, packet_bits, delays, thetas


def assert_same_points(got, want):
    assert len(got.points) == len(want.points)
    for g, w in zip(got.points, want.points):
        assert typed_bits(g) == typed_bits(w)


def assert_solved_no_looser(traffic, dist, packet_bits, thetas, got, want):
    """A deterministic envelope's exact solve against the reference loop's scan and refinement.

    No bound is above the loop's by more than 1e-12 relative, and the
    bounds lie in [0, 1] and never rise.  The log bound c*log M(theta) -
    theta*d, c = burst / packet_bits, is convex, so each exponent must meet
    its optimality condition on the loop's range [lo, edge]: the slope
    c*m(theta) - d, m the tilted mean, is <= 0 above lo and >= 0 below the
    edge, so 0 inside.  A point that keeps the previous point's exponent
    and bound, which hold at its larger delay too, is exempt.
    """
    assert len(got.points) == len(want.points)
    probs = np.array([p.prob for p in got.points])
    assert np.all(probs <= np.array([p.prob for p in want.points]) * (1.0 + 1e-12))
    assert np.all((probs >= 0.0) & (probs <= 1.0)) and np.all(np.diff(probs) <= 0.0)

    def feasible(theta):
        return reference_bound_prob(traffic, dist, packet_bits, theta, got.points[0].delay) != math.inf

    grid = sorted(float(t) for t in thetas)
    stable = [t for t in grid if feasible(t)]
    hi = next((t for t in grid if t > stable[-1]), 2.0 * 700.0 / dist.max_duration)
    lo, edge = stable[0], reference_edge(feasible, stable[-1], hi)
    c = arrival_curve_for(traffic, packet_bits, lo).burst / packet_bits
    previous = None
    for p in got.points:
        if p.theta is None or (p.theta, p.prob) == previous:
            continue
        previous = p.theta, p.prob
        assert lo <= p.theta <= edge
        slope = c * dist.tilted_moments(p.theta)[0] - p.delay
        assert p.theta == lo or slope <= 1e-9 * p.delay
        assert p.theta == edge or slope >= -1e-9 * p.delay


def assert_optimiser_against_reference(traffic, dist, packet_bits, delays, thetas):
    """The optimiser against the reference loop: bit for bit on a stochastic envelope, else solved."""
    want = reference_optimize_delay_ccdf(traffic, dist, packet_bits, delays, thetas)
    got = snc.optimize_delay_ccdf(traffic, dist, packet_bits, delays, thetas)
    if traffic.kind == "periodic":
        assert_solved_no_looser(traffic, dist, packet_bits, thetas, got, want)
    else:
        assert_same_points(got, want)
    return got, want


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(optimiser_inputs(STOCHASTIC))
def test_optimiser_is_the_reference_loop_bit_for_bit(inputs):
    traffic, dist, packet_bits, delays, thetas = inputs
    try:
        want = reference_optimize_delay_ccdf(traffic, dist, packet_bits, delays, thetas)
    except snc.Overload:
        with pytest.raises(snc.Overload):
            snc.optimize_delay_ccdf(traffic, dist, packet_bits, delays, thetas)
        return
    # above full load no exponent is stable; the margin covers rounding at small theta
    assert dist.mean() / traffic.mean_interarrival <= 1.001
    assert_same_points(snc.optimize_delay_ccdf(traffic, dist, packet_bits, delays, thetas), want)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(optimiser_inputs(("periodic",)))
def test_deterministic_envelopes_are_solved_no_looser_than_the_reference_loop(inputs):
    traffic, dist, packet_bits, delays, thetas = inputs
    try:
        reference_optimize_delay_ccdf(traffic, dist, packet_bits, delays, thetas)
    except snc.Overload:
        with pytest.raises(snc.Overload):
            snc.optimize_delay_ccdf(traffic, dist, packet_bits, delays, thetas)
        return
    assert_optimiser_against_reference(traffic, dist, packet_bits, delays, thetas)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(optimiser_inputs())
def test_the_edge_loosens_no_bound_of_the_grid_rule(inputs):
    # the scan's candidates only grow, and a minimum at the edge can no
    # longer be refined: that may cost the last few ulps, never more
    traffic, dist, packet_bits, delays, thetas = inputs
    try:
        old = reference_optimize_delay_ccdf(traffic, dist, packet_bits, delays, thetas, edge=False)
    except snc.Overload:
        return
    probs = snc.optimize_delay_ccdf(traffic, dist, packet_bits, delays, thetas).probs()
    assert np.all(probs <= np.array([p.prob for p in old.points]) * (1.0 + 1e-12))
    assert np.all((probs >= 0.0) & (probs <= 1.0)) and np.all(np.diff(probs) <= 0.0)


@pytest.mark.parametrize("kind", ["periodic", "onoff"])
@pytest.mark.parametrize("rho", [0.2, 0.4])
def test_refined_points_are_the_reference_loop_bit_for_bit(kind, rho):
    # the optimum mostly sits on the stability edge, where the grid point
    # wins; at a few mean service times of delay with bursty traffic the
    # golden-section probes beat the grid, and their thetas lie off it, as
    # do the roots that periodic traffic's solve finds there
    dist = service_distribution(LinkConfig(), TC, 0.3)
    mean_t = dist.mean()
    if kind == "periodic":
        traffic = PeriodicTraffic(t_pit=mean_t / rho)
    else:
        switch = 1.0 / (3.0 * mean_t)
        traffic = OnOffTraffic(lam_on_off=switch, mu_off_on=switch, rate=2.0 * rho / mean_t)
    delays = [0.25 * mean_t * (k + 1) for k in range(64)]
    thetas = ThetaGridSpec().values()
    got, want = assert_optimiser_against_reference(traffic, dist, 8.0 * 50, delays, thetas)
    assert any(p.theta not in (None, *thetas) for p in want.points)
    assert any(p.theta not in (None, *thetas) for p in got.points)


def traffic_at(kind, mean_t, rho):
    if kind == "periodic":
        return PeriodicTraffic(t_pit=mean_t / rho)
    if kind == "poisson":
        return PoissonTraffic(rate=rho / mean_t)
    switch = 1.0 / (3.0 * mean_t)
    return OnOffTraffic(lam_on_off=switch, mu_off_on=switch, rate=2.0 * rho / mean_t)


EDGE_DIST = service_distribution(LinkConfig(l_d=100), TC, 0.2)


def edge_case(case):
    """A theta grid (with the packet size it is meant for) that reaches one edge of the curve builder."""
    if case == "one stable exponent":
        # below the MGF's resolution, stable, past the overflow guards: the one stable
        # exponent and its edge are the scan's only candidates, so nothing is refined
        return np.array([1e-30, 1e-3, 1e3]), 800.0
    if case == "flat and overflowing MGF":
        return np.concatenate((np.geomspace(1e-30, 1e-18, 4), ThetaGridSpec().values(),
                               np.geomspace(10.0, 1e3, 3))), 800.0
    if case == "packet bits past 700":
        thetas = np.array(ThetaGridSpec(min=1e-5, max=5.0, points=60).values())
        over = thetas * 800.0 > 700.0
        assert over.any() and np.any(over & (thetas * EDGE_DIST.max_duration <= 700.0))
        return thetas, 800.0
    # the packet size that puts the service rate at 1 bit/ms at theta0, where the
    # service decay theta0 / R meets the arrival decay theta0; the grid's
    # neighbours lie so close that every probe between them meets it too
    theta0 = 1e-3
    return theta0 * np.array([1.0 - 1e-13, 1.0, 1.0 + 1e-13]), math.log(EDGE_DIST.mgf(theta0)) / theta0


@pytest.mark.parametrize("kind", ["periodic", "poisson", "onoff"])
@pytest.mark.parametrize("case", ["one stable exponent", "flat and overflowing MGF",
                                  "packet bits past 700", "equal decay rates"])
def test_curve_builder_edges_are_the_reference_loop_bit_for_bit(kind, case):
    mean_t = EDGE_DIST.mean()
    traffic = traffic_at(kind, mean_t, 0.5)
    thetas, packet_bits = edge_case(case)
    delays = [0.25 * mean_t * (k + 1) for k in range(64)]
    got, _ = assert_optimiser_against_reference(traffic, EDGE_DIST, packet_bits, delays, thetas)
    assert any(p.theta is not None for p in got.points)
    if case == "one stable exponent" and kind != "periodic":
        edge = max(p.theta for p in got.points if p.theta is not None)
        assert 1e-3 < edge < 1e3
        assert {p.theta for p in got.points} <= {None, 1e-3, edge}
    if case == "equal decay rates" and kind != "periodic":
        for theta in thetas:
            rate, _, a, b = snc._curve_builder(traffic, EDGE_DIST, packet_bits)(theta)
            assert rate == pytest.approx(1.0, rel=1e-12)
            assert abs(a - b) <= 1e-12 * max(a, b)


@pytest.mark.parametrize("traffic", [
    PeriodicTraffic(t_pit=40.0),
    PoissonTraffic(rate=0.025),
    OnOffTraffic(lam_on_off=0.05, mu_off_on=0.05, rate=0.05),
])
def test_curves_built_once_per_theta(monkeypatch, traffic):
    # the scan builds each stable grid exponent's curves once for every delay
    built = Counter()
    curve_builder = snc._curve_builder

    def counting_builder(traffic, dist, packet_bits):
        curves_at = curve_builder(traffic, dist, packet_bits)

        def counting(theta):
            built[float(theta)] += 1
            return curves_at(theta)
        return counting

    monkeypatch.setattr(snc, "_curve_builder", counting_builder)
    dist = service_distribution(LinkConfig(), TC, 0.2)
    delays = [3.0 * (k + 1) for k in range(64)]    # rho about 0.53 at a mean of 21 ms
    grid = ThetaGridSpec().values()
    snc.optimize_delay_ccdf(traffic, dist, 8.0 * 50, delays, grid)
    assert len(built) > len(grid)  # the probes went through it too
    curves_at = curve_builder(traffic, dist, 8.0 * 50)
    stable = [float(t) for t in grid if not isinstance(curves_at(t), str)]
    assert stable and all(built[t] == 1 for t in stable)
