"""Exact service-time distribution: timings, pmf, moments, MGF, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkdelay import (
    LinkConfig,
    ServiceDistribution,
    TimingConstants,
    attempt_pmf,
    delivered_duration,
    dropped_duration,
    service_components,
    service_distribution,
)

REL = 1e-9

# Forced-frame example: frame_overhead=75 with l_d=50 gives
# t_frame = (75+50)*8/250 = 4 ms exactly; d_retry=30, t_spi=0.
FORCED_TC = TimingConstants(t_spi=0.0, frame_overhead=75)
FORCED_CFG = LinkConfig(l_d=50, d_retry=30.0, n_max_tries=3)
T_SUCC = 11.464
T_FAIL = 17.696
T_RETRY = 47.696
DUR_K1 = 11.464
DUR_K2 = 59.160
DUR_K3 = 106.856
DUR_DROP = 113.088
FORCED_MEAN = 16.716792  # sum duration*prob at p_e=0.1 over all four outcomes


def test_components_defaults():
    comps = service_components(LinkConfig(), TimingConstants())
    assert comps.t_mac == pytest.approx(5.504, rel=REL)
    assert comps.t_frame == pytest.approx(67 * 8 / 250, rel=REL)  # 2.144 ms
    assert comps.t_succ == pytest.approx(5.504 + 2.144 + 1.96, rel=REL)
    assert comps.t_fail == pytest.approx(5.504 + 2.144 + 8.192, rel=REL)
    assert comps.t_retry == pytest.approx(30.0 + comps.t_fail, rel=REL)


def test_components_forced_frame():
    comps = service_components(FORCED_CFG, FORCED_TC)
    assert comps.t_frame == pytest.approx(4.0, rel=REL)
    assert comps.t_succ == pytest.approx(T_SUCC, rel=REL)
    assert comps.t_fail == pytest.approx(T_FAIL, rel=REL)
    assert comps.t_retry == pytest.approx(T_RETRY, rel=REL)


def test_components_all_zero():
    tc = TimingConstants(t_spi=0.0, t_tr=0.0, t_bo=0.0, t_ack=0.0, t_wait_ack=0.0,
                         frame_overhead=0, phy_rate=250.0)
    comps = service_components(LinkConfig(l_d=0, d_retry=0.0), tc)
    assert comps.t_mac == comps.t_frame == comps.t_succ == comps.t_fail == comps.t_retry == 0.0


def test_timing_validation():
    with pytest.raises(ValueError):
        TimingConstants(t_spi=-0.1)
    with pytest.raises(ValueError):
        TimingConstants(phy_rate=0.0)
    with pytest.raises(ValueError):
        TimingConstants(frame_overhead=-1)


def test_delivered_duration():
    comps = service_components(FORCED_CFG, FORCED_TC)
    assert delivered_duration(1, comps, 0.0) == pytest.approx(DUR_K1, rel=REL)
    assert delivered_duration(2, comps, 0.0) == pytest.approx(DUR_K2, rel=REL)
    assert delivered_duration(3, comps, 0.0) == pytest.approx(DUR_K3, rel=REL)
    zero = service_components(
        LinkConfig(l_d=0, d_retry=0.0),
        TimingConstants(t_spi=0.0, t_tr=0.0, t_bo=0.0, t_ack=0.0, t_wait_ack=0.0,
                        frame_overhead=0),
    )
    assert delivered_duration(1, zero, 0.0) == 0.0
    with pytest.raises(ValueError):
        delivered_duration(0, comps, 0.0)


def test_dropped_duration():
    comps = service_components(FORCED_CFG, FORCED_TC)
    assert dropped_duration(comps, 0.0, 3) == pytest.approx(DUR_DROP, rel=REL)
    # no retries: just the failed attempt
    assert dropped_duration(comps, 0.5, 1) == pytest.approx(0.5 + T_FAIL, rel=REL)


def test_attempt_pmf_worked():
    probs, drop = attempt_pmf(0.1, 3)
    assert probs == pytest.approx([0.9, 0.09, 0.009], rel=1e-12)
    assert drop == pytest.approx(0.001, rel=1e-12)


def test_attempt_pmf_degenerate():
    probs, drop = attempt_pmf(0.0, 4)
    assert probs == (1.0, 0.0, 0.0, 0.0) and drop == 0.0
    probs, drop = attempt_pmf(1.0, 4)
    assert probs == (0.0, 0.0, 0.0, 0.0) and drop == 1.0
    with pytest.raises(ValueError):
        attempt_pmf(-0.1, 3)
    with pytest.raises(ValueError):
        attempt_pmf(1.1, 3)


def test_attempt_pmf_sums_to_one():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(1, 12))
        probs, drop = attempt_pmf(p, n)
        assert all(type(q) is float and q >= 0.0 for q in probs)
        assert math.fsum(probs) + drop == pytest.approx(1.0, abs=1e-15)
        for k in range(1, n + 1):
            assert probs[k - 1] == pytest.approx((1 - p) * p ** (k - 1), rel=1e-12)
        assert drop == pytest.approx(p**n, rel=1e-12)


def test_distribution_forced_example():
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.1)
    assert dist.delivered.tolist() == [True, True, True, False]
    assert dist.attempts.tolist() == [1, 2, 3, 3]
    assert dist.durations[:-1] == pytest.approx([DUR_K1, DUR_K2, DUR_K3], rel=REL)
    assert dist.probs[:-1] == pytest.approx([0.9, 0.09, 0.009], rel=1e-12)
    assert dist.durations[-1] == pytest.approx(DUR_DROP, rel=REL)
    assert dist.probs[-1] == pytest.approx(0.001, rel=1e-12)
    assert dist.mean() == pytest.approx(FORCED_MEAN, rel=REL)
    # independent brute-force moments from the frozen atoms
    durs = np.array([DUR_K1, DUR_K2, DUR_K3, DUR_DROP])
    probs = np.array([0.9, 0.09, 0.009, 0.001])
    assert dist.mean() == pytest.approx(float(durs @ probs), rel=1e-12)
    expected_var = float(probs @ (durs - durs @ probs) ** 2)
    assert dist.variance() == pytest.approx(expected_var, rel=1e-12)


def test_distribution_lossless_is_single_atom():
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.0)
    assert dist.probs[0] == 1.0
    assert dist.drop_probability == 0.0
    comps = service_components(LinkConfig(), TimingConstants())
    assert dist.durations[0] == delivered_duration(1, comps, 0.5)
    assert dist.variance() == pytest.approx(0.0, abs=1e-12)


def test_distribution_invariants_reject_bad_atoms():
    good = service_distribution(FORCED_CFG, FORCED_TC, 0.1)
    with pytest.raises(ValueError):
        ServiceDistribution(durations=good.durations, probs=[p * 0.5 for p in good.probs], p_e=0.1,
                            n_max_tries=3)
    # durations must increase with the attempt index
    shuffled = [good.durations[i] for i in (1, 0, 2, 3)]
    with pytest.raises(ValueError):
        ServiceDistribution(durations=shuffled, probs=good.probs, p_e=0.1, n_max_tries=3)
    # n_max_tries delivery atoms and one drop atom, in both arrays
    with pytest.raises(ValueError):
        ServiceDistribution(durations=good.durations[:-1], probs=good.probs, p_e=0.1, n_max_tries=3)
    with pytest.raises(ValueError):
        ServiceDistribution(durations=good.durations, probs=good.probs, p_e=0.1, n_max_tries=2)


def test_distribution_arrays_are_read_only_copies():
    # the atoms are float tuples, copied from the input; the simulator's numpy views are read-only
    durations = np.array([DUR_K1, DUR_K2, DUR_K3, DUR_DROP])
    dist = ServiceDistribution(durations=durations, probs=[0.9, 0.09, 0.009, 0.001],
                               p_e=0.1, n_max_tries=3)
    durations[0] = 0.0
    assert dist.durations[0] == DUR_K1
    for atoms in (dist.durations, dist.probs):
        assert type(atoms) is tuple and all(type(v) is float for v in atoms)
    assert dist.duration_array.tolist() == list(dist.durations)
    for array in (dist.duration_array, dist.attempts, dist.delivered):
        with pytest.raises(ValueError):
            array[0] = 1


def test_moments_add_left_to_right():
    # the golden CLI outputs hold these bits; a compensated sum (math.fsum,
    # or sum() of floats from Python 3.12 on) gives ...774 for the mean
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.03186372375543293)
    assert dist.mean() == 11.615375918760776
    wide = service_distribution(LinkConfig(n_max_tries=8), TimingConstants(), 0.45)
    mean = mgf = 0.0
    for d, p in zip(wide.durations, wide.probs):
        mean += d * p
        mgf += p * math.exp(0.02 * d)
    assert wide.mean() == mean and wide.mgf(0.02) == mgf


def test_mgf_at_zero_is_one():
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.1)
    assert dist.mgf(0.0) == 1.0


def test_mgf_single_atom():
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.0)
    # single atom at 11.464 ms
    assert dist.mgf(0.01) == pytest.approx(math.exp(0.11464), rel=1e-12)


def test_mgf_first_order_expansion():
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.1)
    theta = 1e-8
    assert (dist.mgf(theta) - 1.0) / theta == pytest.approx(FORCED_MEAN, rel=1e-4)


def test_mgf_shape_properties():
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.2)
    thetas = np.logspace(-4, -1.5, 12)
    vals = np.array([dist.mgf(t) for t in thetas])
    assert np.all(np.diff(vals) > 0.0)  # strictly increasing in theta
    for t, v in zip(thetas, vals):
        assert v >= math.exp(t * dist.mean()) - 1e-12  # Jensen
    # convexity via second difference on an even grid
    even = np.linspace(0.001, 0.03, 9)
    ev = np.array([dist.mgf(t) for t in even])
    assert np.all(ev[2:] - 2 * ev[1:-1] + ev[:-2] >= -1e-12)


def test_mgf_guards():
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.1)
    with pytest.raises(ValueError):
        dist.mgf(-0.01)
    with pytest.raises(OverflowError):
        dist.mgf(701.0 / dist.max_duration)


def test_mgf_range_counts_positive_atoms_only():
    # at p_e = 0 the law draws its first atom only: the retry and drop atoms,
    # of probability 0, neither cap the MGF's range nor enter its sum
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.0)
    assert dist.max_duration == dist.durations[0]
    theta = 60.0  # past 700 / DUR_DROP, the cap that counted every atom
    assert theta * DUR_DROP > 700.0
    assert dist.mgf(theta) == math.exp(theta * dist.durations[0])
    with pytest.raises(OverflowError):
        dist.mgf(701.0 / dist.durations[0])


def test_sampling_degenerate_outcomes():
    rng = np.random.default_rng(5)
    lossless = service_distribution(FORCED_CFG, FORCED_TC, 0.0)
    attempts, durations, delivered = lossless.sample_many(rng, 500)
    assert np.all(attempts == 1) and np.all(delivered)
    assert np.all(durations == lossless.durations[0])

    hopeless = service_distribution(FORCED_CFG, FORCED_TC, 1.0)
    _, durations, delivered = hopeless.sample_many(rng, 500)
    assert not np.any(delivered)
    assert np.all(durations == pytest.approx(DUR_DROP, rel=REL))


def test_sampling_deterministic_per_seed():
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.3)
    a1 = dist.sample_many(np.random.default_rng(99), 1000)
    a2 = dist.sample_many(np.random.default_rng(99), 1000)
    for x, y in zip(a1, a2):
        assert np.array_equal(x, y)


def searchsorted_atoms(dist, rng, n):
    """The inverse-CDF draw as sample_many took it before: a binary search on the forced cumsum."""
    cum = np.cumsum(dist.probs)
    cum[-1] = 1.0
    return np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(cum) - 1)


def law_of(probs):
    probs = np.asarray(probs, dtype=float)
    return ServiceDistribution(durations=np.arange(1.0, probs.size + 1.0), probs=probs,
                               p_e=0.5, n_max_tries=probs.size - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0.0),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_sampling_counts_the_same_atoms_as_a_binary_search(weights, tiny_last, seed):
    probs = np.asarray(weights) / sum(weights)
    if tiny_last:
        # a last atom too small to move the sum: the partial sums before it often round above 1
        probs = np.append(probs, 1e-17)
    if probs.size < 2:
        probs = np.append(probs, 0.0)
    dist = law_of(probs)
    attempts, durations, delivered = dist.sample_many(np.random.default_rng(seed), 2000)
    idx = searchsorted_atoms(dist, np.random.default_rng(seed), 2000)
    assert np.array_equal(durations, dist.duration_array[idx])
    assert np.array_equal(attempts, dist.attempts[idx])
    assert np.array_equal(delivered, dist.delivered[idx])


def test_sampling_where_a_partial_sum_rounds_above_one():
    dist = law_of([0.2, 0.4, 0.3, 0.1, 1e-17])
    assert np.cumsum(dist.probs)[-2] > 1.0
    _, durations, _ = dist.sample_many(np.random.default_rng(3), 100_000)
    idx = searchsorted_atoms(dist, np.random.default_rng(3), 100_000)
    assert np.array_equal(durations, dist.duration_array[idx])
    assert set(durations.tolist()) == {1.0, 2.0, 3.0, 4.0}


def test_sampled_moments_match_exact():
    dist = service_distribution(LinkConfig(n_max_tries=5), TimingConstants(), 0.3)
    rng = np.random.default_rng(2024)
    n = 1_000_000
    _, durations, _ = dist.sample_many(rng, n)
    mean, var = dist.mean(), dist.variance()
    durs, probs = dist.duration_array, np.array(dist.probs)
    mu4 = float(probs @ (durs - mean) ** 4)
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt(max(mu4 - var**2, 0.0) / n)
    assert abs(durations.mean() - mean) < 3 * se_mean
    assert abs(durations.var() - var) < 3 * se_var
