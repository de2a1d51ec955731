"""Discrete-event link simulator: exact degenerate cases, conservation,
classical queue oracles, and the empirical CCDF with its confidence band."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import binom

from linkdelay import simulator
from linkdelay._clopper_pearson import upper_limit
from linkdelay import (
    LinkConfig,
    PeriodicTraffic,
    PoissonTraffic,
    OnOffTraffic,
    TimingConstants,
    delivered_duration,
    dominance_report,
    empirical_ccdf,
    generate_arrivals,
    run_simulation,
    service_components,
    service_distribution,
    simulate,
)

LINK = LinkConfig()
TC = TimingConstants()
SRC = Path(__file__).parents[1] / "src"


def test_lossless_periodic_delays_are_exactly_first_attempt():
    result = run_simulation(LINK, TC, PeriodicTraffic(t_pit=50.0, horizon=5000), 0.0, seed=1)
    t1 = delivered_duration(1, service_components(LINK, TC), TC.t_spi)
    assert result.n_delivered == 5000
    assert np.all(result.delivered_delays == t1)
    assert result.loss_fraction == 0.0


def test_total_loss_everything_retry_dropped():
    result = run_simulation(LINK, TC, PeriodicTraffic(t_pit=200.0, horizon=1000), 1.0, seed=2)
    assert result.n_delivered == 0
    assert result.n_retry_drops == 1000
    assert result.delivered_delays.size == 0
    assert math.isnan(result.mean_delay)
    assert result.loss_fraction == 1.0


def test_packet_conservation_over_random_configs():
    rng = np.random.default_rng(808)
    for _ in range(25):
        link = LinkConfig(
            l_d=int(rng.integers(1, 115)),
            snr=float(rng.uniform(5.0, 25.0)),
            n_max_tries=int(rng.integers(1, 6)),
            d_retry=float(rng.uniform(0.0, 60.0)),
            q_max=int(rng.integers(1, 8)),
            t_pit=float(rng.uniform(5.0, 60.0)),
        )
        p_e = float(rng.uniform(0.0, 0.9))
        traffic = PeriodicTraffic(t_pit=link.t_pit, horizon=2000)
        result = run_simulation(link, TC, traffic, p_e, seed=int(rng.integers(1, 10**6)))
        assert (
            result.n_delivered + result.n_queue_drops + result.n_retry_drops
            == result.n_arrivals
            == 2000
        )


def test_queue_drops_under_pressure_and_fifo_trace():
    link = LinkConfig(q_max=1, t_pit=2.0)
    result = run_simulation(
        link, TC, PeriodicTraffic(t_pit=2.0, horizon=3000), 0.3, seed=3, collect_trace=True
    )
    assert result.n_queue_drops > 0
    tr = result.trace
    served = ~np.isnan(tr.start)
    starts = tr.start[served]
    assert np.all(np.diff(starts) >= 0.0)  # FIFO service order
    assert np.all(starts >= tr.arrival[served])
    delivered = np.array([o == "delivered" for o in tr.outcome])
    assert np.count_nonzero(delivered) == result.n_delivered
    # queue-dropped packets never start service
    dropped_q = np.array([o == "queue_drop" for o in tr.outcome])
    assert np.all(np.isnan(tr.start[dropped_q]))


def test_delay_decomposition_in_trace():
    result = run_simulation(
        LINK, TC, PoissonTraffic(rate=0.05, horizon=2000), 0.2, seed=4, collect_trace=True
    )
    tr = result.trace
    dist = service_distribution(LINK, TC, 0.2)
    delivered_durs = dict(enumerate(dist.durations[:-1], start=1))
    for i, out in enumerate(tr.outcome):
        if out != "delivered":
            continue
        waiting = tr.start[i] - tr.arrival[i]
        assert waiting >= -1e-12
        assert tr.delay[i] == pytest.approx(waiting + delivered_durs[tr.attempts[i]], abs=1e-9)


def test_determinism_per_seed():
    spec = PoissonTraffic(rate=0.04, horizon=4000)
    a = run_simulation(LINK, TC, spec, 0.3, seed=99)
    b = run_simulation(LINK, TC, spec, 0.3, seed=99)
    assert np.array_equal(a.delivered_delays, b.delivered_delays)
    assert (a.n_delivered, a.n_queue_drops, a.n_retry_drops) == (
        b.n_delivered,
        b.n_queue_drops,
        b.n_retry_drops,
    )
    c = run_simulation(LINK, TC, spec, 0.3, seed=100)
    assert not np.array_equal(a.delivered_delays, c.delivered_delays)


def test_a_packet_takes_its_own_outcome_whatever_the_waiting_room():
    # packet j takes the j-th outcome drawn, served or not: a short queue
    # that drops every few packets serves each packet it keeps with the
    # attempts the drop-free run gives it, and leaves the rng where it does
    spec = PoissonTraffic(rate=1.1 / service_distribution(LINK, TC, 0.3).mean(), horizon=20_000)
    runs = {}
    for q_max in (3, 10**6):
        rng = np.random.default_rng(8)
        arrivals = generate_arrivals(spec, rng)
        runs[q_max] = simulate(arrivals, LinkConfig(q_max=q_max), TC, 0.3, rng, collect_trace=True), rng
    (short, short_rng), (long, long_rng) = runs[3], runs[10**6]
    served = np.array(short.trace.outcome) != "queue_drop"
    assert short.n_queue_drops > 0.05 * served.size and long.n_queue_drops == 0
    assert np.array_equal(short.trace.attempts[served], long.trace.attempts[served])
    assert short_rng.bit_generator.state == long_rng.bit_generator.state


def test_dd1_no_waiting_when_arrivals_slower_than_service():
    # deterministic service (p_e=0) slower than the period: no queueing at all
    result = run_simulation(LINK, TC, PeriodicTraffic(t_pit=30.0, horizon=2000), 0.0, seed=5)
    t1 = delivered_duration(1, service_components(LINK, TC), TC.t_spi)
    assert np.all(result.delivered_delays == t1)


def test_md1_mean_waiting_matches_pollaczek_khinchine():
    # p_e=0 gives a deterministic service time, so Poisson input is M/D/1:
    # W_q = rho * s / (2 (1 - rho))
    s = delivered_duration(1, service_components(LINK, TC), TC.t_spi)
    lam = 0.05
    rho = lam * s
    expected_wq = rho * s / (2.0 * (1.0 - rho))
    result = run_simulation(
        LINK,
        TC,
        PoissonTraffic(rate=lam, horizon=300_000),
        0.0,
        seed=6,
        collect_trace=False,
    )
    waiting = result.delivered_delays - s
    assert waiting.mean() == pytest.approx(expected_wq, rel=0.05)


def test_retry_drop_fraction_matches_drop_probability():
    p_e = 0.4
    n_tries = 3
    link = LinkConfig(n_max_tries=n_tries, t_pit=300.0)
    result = run_simulation(link, TC, PeriodicTraffic(t_pit=300.0, horizon=50_000), p_e, seed=7)
    drop = p_e**n_tries
    se = math.sqrt(drop * (1 - drop) / 50_000)
    assert result.n_queue_drops == 0  # arrivals far slower than service
    assert abs(result.n_retry_drops / 50_000 - drop) < 3.5 * se


def test_simulate_input_validation():
    dist_cfg = (LINK, TC, 0.1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate(np.array([]), *dist_cfg, rng)
    with pytest.raises(ValueError):
        simulate(np.array([5.0, 1.0]), *dist_cfg, rng)
    with pytest.raises(ValueError):
        simulate(np.array([1.0, np.nan]), *dist_cfg, rng)


@pytest.mark.parametrize("arrivals, problem", [
    ([0.0, np.nan, 2.0], "finite"),
    ([np.inf, 1.0, 2.0], "finite"),
    ([-np.inf, 1.0, 2.0], "finite"),
    ([0.0, 1.0, np.inf], "finite"),
    ([0.0, 1.0, -np.inf], "finite"),
    ([0.0, np.nan, 5.0, 1.0], "finite"),      # a step down after the NaN: finite still wins
    ([np.inf], "finite"),
    ([np.nan], "finite"),
    ([0.0, 3.0, 2.0, 4.0], "non-decreasing"),
])
def test_simulate_names_the_first_problem_of_its_input(arrivals, problem):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^arrivals must be {problem}$"):
        simulate(np.array(arrivals), LINK, TC, 0.1, rng)
    assert rng.bit_generator.state == state   # refused before any draw


@pytest.mark.parametrize("q_max", [10**7, 3])
def test_waiting_room_size_costs_no_memory(q_max):
    # a huge q_max (drop-free, handled by the Lindley pass) and a short one
    # (overflows early, the tail serve takes nearly every packet)
    link = LinkConfig(q_max=q_max)
    p_e = 0.1
    spec = PoissonTraffic(rate=0.9 / service_distribution(link, TC, p_e).mean(), horizon=2000)
    tracemalloc.start()
    try:
        result = run_simulation(link, TC, spec, p_e, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.n_queue_drops > 0) == (q_max == 3)
    assert peak < 5e6


def overflow_arrivals(kind, q_max, rho):
    """1e6 arrivals of the given kind at load rho on a link with q_max waiting slots: (link, arrivals)."""
    n, p_e = 10**6, 0.1
    link = LinkConfig(q_max=q_max)
    mean_t = service_distribution(link, TC, p_e).mean()
    spec = {"periodic": PeriodicTraffic(t_pit=mean_t / rho, horizon=n),
            "poisson": PoissonTraffic(rate=rho / mean_t, horizon=n),
            "onoff": OnOffTraffic(lam_on_off=1.0 / (6.0 * mean_t), mu_off_on=1.0 / (6.0 * mean_t),
                                  rate=2.0 * rho / mean_t, horizon=n)}[kind]
    return link, generate_arrivals(spec, np.random.default_rng(5))


def traced_peak(kind, q_max, rho):
    """(result, tracemalloc peak) of simulate over 1e6 packets of the given kind at load rho."""
    link, arrivals = overflow_arrivals(kind, q_max, rho)
    tracemalloc.start()
    try:
        result = simulate(arrivals, link, TC, 0.1, np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("kind, q_max", [("periodic", 10**7), ("poisson", 10**7), ("onoff", 10**7),
                                         ("poisson", 60)])
def test_simulate_holds_little_beyond_its_input_and_its_output(kind, q_max):
    # drop-free, so the Lindley pass serves all 1e6 packets: service
    # outcomes are drawn a chunk at a time and delays written as each chunk
    # ends, so beyond the arrivals only the delays (8 bytes a packet),
    # arrays of one chunk and, when arrivals could fill the waiting room,
    # its last q_max + 1 departures are held; drawing every outcome up
    # front took 33 bytes a packet
    n = 10**6
    result, peak = traced_peak(kind, q_max, 0.7)
    assert result.n_queue_drops == 0 and result.n_delivered > 0.99 * n
    assert peak <= 16 * n


# Runs in a fresh interpreter: arrivals from the .npy file argv[1], q_max
# argv[2].  After a 5000-packet warm-up, prints the growth of the process's
# peak resident set over one simulate call, in bytes a packet, and the
# call's queue drops.  The peak is VmHWM, the high-water mark of the
# process's own pages: ru_maxrss would start at the resident set of the
# process that spawned it, pytest's, and hide the growth
_RSS_GROWTH_PROBE = """
import sys
import numpy as np
from linkdelay import LinkConfig, TimingConstants, simulate

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

arrivals = np.load(sys.argv[1])
link, tc = LinkConfig(q_max=int(sys.argv[2])), TimingConstants()
simulate(arrivals[:5000], link, tc, 0.1, np.random.default_rng(7))
before = peak_kib()
result = simulate(arrivals, link, tc, 0.1, np.random.default_rng(6))
print(1024 * (peak_kib() - before) / arrivals.size, result.n_queue_drops)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux's /proc")
@pytest.mark.parametrize("kind, q_max, rho", [
    ("onoff", 60, 0.7),     # a dozen drops: the tail serve takes most of the run
    ("poisson", 3, 0.88),
    ("onoff", 3, 1.08),     # overloaded: over a third of the packets are dropped
])
def test_simulate_holds_little_when_the_queue_overflows(tmp_path, kind, q_max, rho):
    # the tail serve takes the packets from the first possible overflow
    # on in blocks of the Lindley pass's largest chunk, drawing the
    # outcomes of a block's arrivals and writing its delays as it ends.
    # The peak resident set of a fresh process, past its input, grows by
    # 11-16 bytes a packet, the delays' 8 included, where serving the whole
    # tail at once grew it by 64-81.  Resident memory counts whole pages
    # and the heap the allocator keeps, so the bound sits between the two
    # rather than at the 16 bytes a packet tracemalloc would allow
    arrivals = tmp_path / "arrivals.npy"
    np.save(arrivals, overflow_arrivals(kind, q_max, rho)[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RSS_GROWTH_PROBE, str(arrivals), str(q_max)],
                          env=env, capture_output=True, text=True, check=True)
    per_packet, n_queue_drops = proc.stdout.split()
    assert int(n_queue_drops) > 0
    assert float(per_packet) <= 32.0


def test_empirical_ccdf_handcrafted():
    emp = empirical_ccdf(np.array([1.0, 2.0, 3.0, 4.0]), [0.5, 2.0, 3.9], confidence=0.99)
    assert emp.fractions == pytest.approx([1.0, 0.5, 0.25])
    # one-sided binomial upper limits: smallest p with P(X <= k; n, p) = 1 - conf
    for frac, k, upper in zip(emp.fractions, (4, 2, 1), emp.upper):
        if k == 4:
            assert upper == 1.0
            continue
        ref = brentq(lambda p: binom.cdf(k, 4, p) - 0.01, 1e-12, 1 - 1e-12, xtol=1e-14)
        assert upper == pytest.approx(ref, rel=1e-9)


def test_empirical_ccdf_zero_hits_still_informative():
    emp = empirical_ccdf(np.linspace(0.0, 1.0, 51), [2.0], confidence=0.99)
    assert emp.fractions[0] == 0.0
    ref = brentq(lambda p: binom.cdf(0, 51, p) - 0.01, 1e-12, 1 - 1e-12, xtol=1e-14)
    assert emp.upper[0] == pytest.approx(ref, rel=1e-9)
    with pytest.raises(ValueError):
        empirical_ccdf(np.array([]), [1.0])


@pytest.mark.parametrize("confidence", [0.0, 0.49, 1.0, float("nan")])
def test_empirical_ccdf_confidence_range(confidence):
    # the envelope is an upper limit: below 1/2 it would sit under the median estimate
    with pytest.raises(ValueError, match=r"confidence must be in \[0.5, 1\)"):
        empirical_ccdf(np.array([1.0, 2.0]), [1.5], confidence=confidence)
    emp = empirical_ccdf(np.array([1.0, 2.0]), [1.5], confidence=0.5)
    assert emp.upper[0] == pytest.approx(brentq(lambda p: binom.cdf(1, 2, p) - 0.5, 1e-12, 1 - 1e-12))


def test_empirical_ccdf_strict_exceedance():
    # samples equal to the grid point do not count as exceedances
    emp = empirical_ccdf(np.array([5.0, 5.0, 6.0]), [5.0])
    assert emp.fractions[0] == pytest.approx(1.0 / 3.0)


def one_sort_ccdf(delays, grid, confidence=0.99):
    """(fractions, upper) of empirical_ccdf as it counted before it sorted in blocks: one sort of all."""
    samples = np.sort(np.asarray(delays, dtype=float))
    exceed = samples.size - np.searchsorted(samples, np.asarray(grid, dtype=float), side="right")
    return exceed / samples.size, upper_limit(exceed, samples.size, confidence)


def assert_one_sort_counts(delays, grid):
    emp = empirical_ccdf(delays, grid)
    fractions, upper = one_sort_ccdf(delays, grid)
    assert emp.fractions.dtype == fractions.dtype and emp.fractions.tobytes() == fractions.tobytes()
    assert emp.upper.tobytes() == upper.tobytes()


BLOCK = simulator._CCDF_BLOCK


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_empirical_ccdf_blocks_count_as_one_sort(n):
    rng = np.random.default_rng(n)
    delays = rng.exponential(20.0, n)
    # grid points on samples themselves (equal samples never exceed), below
    # and above every sample, unsorted, and repeated
    grid = np.concatenate((delays[rng.integers(0, n, 8)], [-1.0, 0.0, 1e9, 5.0, 5.0, 20.0]))
    assert_one_sort_counts(delays, grid)
    # ties across blocks: the samples rounded to a coarse lattice the grid lies on
    coarse = np.round(delays)
    assert_one_sort_counts(coarse, np.arange(-1.0, 60.0, 0.5))
    # a strided view, and integers, converted block by block
    wide = rng.exponential(20.0, 2 * n)
    assert_one_sort_counts(wide[::2], grid)
    assert_one_sort_counts(wide[::-1], grid)
    assert_one_sort_counts(coarse.astype(np.int64), np.arange(-1.0, 60.0, 0.5))


def test_empirical_ccdf_holds_one_block_whatever_the_sample_count():
    grid = np.linspace(0.0, 100.0, 64)
    peaks = []
    for delays in (np.random.default_rng(1).exponential(20.0, 4 * BLOCK),
                   np.random.default_rng(2).exponential(20.0, 64 * BLOCK),
                   np.random.default_rng(3).integers(0, 100, 64 * BLOCK)):
        tracemalloc.start()
        try:
            empirical_ccdf(delays, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one float buffer of a block, and the envelope's work on the grid: no
    # more at 64 blocks than at 4, where one sort of all 64 would hold 8 MiB
    assert max(peaks) - min(peaks) <= 16 * 1024
    assert max(peaks) <= 2 * BLOCK * 64


def test_dominance_report_flags_and_filters():
    emp = empirical_ccdf(np.array([10.0, 20.0, 30.0, 40.0]), [15.0, 35.0])
    # generous bound: no violations
    assert dominance_report(emp, [15.0, 35.0], [1.0, 1.0]) == []
    # planted violation at the second point
    report = dominance_report(emp, [15.0, 35.0], [1.0, 1e-6])
    assert len(report) == 1
    assert report[0].delay == 35.0
    assert report[0].bound_prob == 1e-6
    # sub-threshold bound points are skipped by the filter
    assert dominance_report(emp, [15.0, 35.0], [1.0, 1e-6], min_bound_prob=1e-3) == []
    with pytest.raises(ValueError):
        dominance_report(emp, [15.0, 36.0], [1.0, 1.0])


def test_onoff_simulation_conservation_and_load():
    spec = OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.02, horizon=30_000)
    result = run_simulation(LINK, TC, spec, 0.03, seed=8)
    assert result.n_delivered + result.n_queue_drops + result.n_retry_drops == 30_000
    # effective arrival rate 8 pkts/s against ~11.6 ms service: light load
    assert result.n_queue_drops == 0
