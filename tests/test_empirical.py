"""Fitted link-model formulas against independently evaluated constants."""

import math
import sys

import numpy as np
import pytest

from linkdelay import (
    EquivalentArrival,
    LinkConfig,
    MomentCoefficients,
    PerCoefficients,
    equivalent_arrival,
    packet_error_rate,
    plr_mean,
    plr_var,
    service_time_mean,
    service_time_var,
)

REL = 1e-9

# Direct evaluations of the closed forms, frozen from a separate
# arithmetic pass (math.exp expressions evaluated outside the package).
PER_50_20 = 0.03186372375543293
PER_110_5 = 0.6650921062593488
MEAN_3_30_50_20 = 17.721538598682375
MEAN_1_60_110_10 = 134.27290791723203
VAR_3_30_20 = 134.42508459323264
VAR_5_60_15 = 948.593021056779
PLR_MEAN_50_20_60 = 0.04707169797927564
PLR_VAR_50_20 = 0.013533528323661271
LAMBDA_WORKED = 0.019058566040414487
VAR_A_WORKED = 5.413411329464508e-06


def test_per_worked_values():
    assert packet_error_rate(50, 20.0) == pytest.approx(PER_50_20, rel=REL)
    assert packet_error_rate(110, 5.0) == pytest.approx(PER_110_5, rel=REL)
    assert PER_110_5 < 1.0  # no clamp on this input


def test_per_edge_cases():
    assert packet_error_rate(0, 17.3) == 0.0
    # large payload at deeply negative snr saturates the clamp
    assert packet_error_rate(114, -50.0) == 1.0
    with pytest.raises(ValueError):
        packet_error_rate(-1, 10.0)


def test_fitted_models_past_the_range_of_exp():
    # beta * snr = 750 lies past exp()'s range, where exp raised OverflowError
    assert packet_error_rate(50, -5000.0) == 1.0
    assert packet_error_rate(0, -5000.0) == 0.0
    cfg = LinkConfig(snr=-5000.0)
    assert service_time_var(cfg) == math.inf
    assert plr_mean(50, -5000.0, 60) == 1.0
    assert plr_var(0, -1e4) == 0.0
    # a coefficient small enough that the product is finite after all
    per = packet_error_rate(1, -4800.0, PerCoefficients(alpha=1e-320))
    assert per == pytest.approx(math.exp(math.log(1e-320) + 720.0), rel=1e-12) and per < 1e-7


@pytest.mark.parametrize("x", [709.0, math.log(sys.float_info.max), 1e-300, -745.0, -800.0])
def test_fitted_models_bit_for_bit_where_exp_is_finite(x):
    # up to the last x whose exp is finite, the value is the plain product
    snr = x / -0.15
    assert packet_error_rate(7, snr) == min(max(0.0128 * 7 * math.exp(-0.15 * snr), 0.0), 1.0)
    assert plr_var(7, snr / 1.5, MomentCoefficients(plr_var_exponent=-0.1)) == (
        (1.0 / 500.0) * 7 * math.exp(-0.1 * (snr / 1.5)))


def test_per_monotone_and_bounded():
    rng = np.random.default_rng(101)
    snrs = np.sort(rng.uniform(-10.0, 40.0, 25))
    payloads = np.arange(0, 115, 6)
    for snr in snrs:
        vals = [packet_error_rate(l, snr) for l in payloads]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))  # non-decreasing in l_d
    for l in payloads:
        vals = [packet_error_rate(l, s) for s in snrs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))  # non-increasing in snr


def test_service_time_mean_worked_values():
    cfg = LinkConfig(l_d=50, snr=20.0, n_max_tries=3, d_retry=30.0)
    assert service_time_mean(cfg) == pytest.approx(MEAN_3_30_50_20, rel=REL)
    cfg2 = LinkConfig(l_d=110, snr=10.0, n_max_tries=1, d_retry=60.0)
    assert service_time_mean(cfg2) == pytest.approx(MEAN_1_60_110_10, rel=REL)


def test_service_time_mean_limits_and_monotonicity():
    # exponential term vanishes at high snr, offset remains
    cfg = LinkConfig(l_d=50, snr=1e6, n_max_tries=3, d_retry=30.0)
    assert service_time_mean(cfg) == pytest.approx(15.0, rel=1e-12)

    rng = np.random.default_rng(202)
    for _ in range(20):
        l_d = int(rng.integers(1, 115))
        d_retry = float(rng.uniform(0.0, 80.0))
        snrs = np.sort(rng.uniform(0.0, 30.0, 8))
        means = [
            service_time_mean(LinkConfig(l_d=l_d, snr=s, n_max_tries=3, d_retry=d_retry))
            for s in snrs
        ]
        assert all(b <= a for a, b in zip(means, means[1:]))
        assert all(m >= 15.0 for m in means)
        for n in (1, 2, 4, 8):
            lo = service_time_mean(LinkConfig(l_d=l_d, snr=10.0, n_max_tries=n, d_retry=d_retry))
            hi = service_time_mean(LinkConfig(l_d=l_d, snr=10.0, n_max_tries=n + 1, d_retry=d_retry))
            assert hi <= lo  # non-increasing in the retry limit


def test_service_time_var_worked_values():
    cfg = LinkConfig(l_d=50, snr=20.0, n_max_tries=3, d_retry=30.0)
    assert service_time_var(cfg) == pytest.approx(VAR_3_30_20, rel=REL)
    cfg2 = LinkConfig(l_d=50, snr=15.0, n_max_tries=5, d_retry=60.0)
    assert service_time_var(cfg2) == pytest.approx(VAR_5_60_15, rel=REL)
    assert service_time_var(LinkConfig(d_retry=0.0)) == 0.0


def test_plr_mean_worked_values():
    assert plr_mean(50, 20.0, 60) == pytest.approx(PLR_MEAN_50_20_60, rel=REL)
    # channel term vanishes at zero payload; queue-overflow floor remains
    assert plr_mean(0, 12.0, 10**9) == pytest.approx(0.0, abs=1e-9)
    # heavy payload, low snr, single-slot queue saturates the clamp
    assert plr_mean(110, 5.0, 1) == 1.0


def test_plr_mean_monotone():
    rng = np.random.default_rng(303)
    snrs = np.sort(rng.uniform(0.0, 30.0, 10))
    vals = [plr_mean(80, s, 40) for s in snrs]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    qs = [1, 2, 5, 20, 100]
    vals_q = [plr_mean(80, 15.0, q) for q in qs]
    assert all(b <= a for a, b in zip(vals_q, vals_q[1:]))


def test_plr_var_worked_values():
    assert plr_var(50, 20.0) == pytest.approx(PLR_VAR_50_20, rel=REL)
    assert plr_var(0, 7.0) == 0.0
    assert plr_var(100, 0.0) == pytest.approx(0.2, rel=REL)


def test_equivalent_arrival_worked_values():
    arr = equivalent_arrival(50.0, PLR_MEAN_50_20_60, PLR_VAR_50_20)
    assert isinstance(arr, EquivalentArrival)
    assert arr.lam == pytest.approx(LAMBDA_WORKED, rel=REL)
    assert arr.var_a == pytest.approx(VAR_A_WORKED, rel=REL)


def test_equivalent_arrival_edge_cases():
    lossless = equivalent_arrival(50.0, 0.0, 0.0)
    assert lossless.lam == pytest.approx(0.02, rel=1e-12)
    assert lossless.var_a == 0.0
    assert equivalent_arrival(50.0, 1.0, 0.3).lam == 0.0
    with pytest.raises(ValueError):
        equivalent_arrival(0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        equivalent_arrival(50.0, 1.5, 0.0)
    with pytest.raises(ValueError):
        equivalent_arrival(50.0, 0.1, -0.1)
    # t_int * t_int underflows to 0, where var_a divided by zero
    with pytest.raises(ValueError, match="underflows"):
        equivalent_arrival(1e-200, 0.1, 0.0)
    assert equivalent_arrival(1e-160, 0.1, 0.0).var_a == 0.0


def test_rate_conservation_identity():
    # lam * t_int + plr == 1 for any loss rate and interval
    rng = np.random.default_rng(404)
    for _ in range(200):
        t_int = float(rng.uniform(1.0, 500.0))
        plr = float(rng.uniform(0.0, 1.0))
        arr = equivalent_arrival(t_int, plr, float(rng.uniform(0.0, 0.2)))
        assert math.isclose(arr.lam * t_int + plr, 1.0, rel_tol=0.0, abs_tol=1e-12)


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(l_d=115)
    with pytest.raises(ValueError):
        LinkConfig(l_d=-1)
    with pytest.raises(ValueError):
        LinkConfig(n_max_tries=0)
    with pytest.raises(ValueError):
        LinkConfig(d_retry=-0.5)
    with pytest.raises(ValueError):
        LinkConfig(q_max=0)
    with pytest.raises(ValueError):
        LinkConfig(t_pit=0.0)
    for field in ("l_d", "n_max_tries", "q_max"):
        for bad in (2.0, 2.5, True, "2"):
            with pytest.raises(TypeError, match=field):
                LinkConfig(**{field: bad})
    LinkConfig(l_d=np.int64(20), n_max_tries=np.int32(2), q_max=np.int64(5))
    LinkConfig(l_d=0)  # zero payload is allowed for degenerate checks


def test_coefficient_validation():
    with pytest.raises(ValueError):
        PerCoefficients(alpha=0.0)
    with pytest.raises(ValueError):
        PerCoefficients(beta=0.01)
    with pytest.raises(ValueError):
        MomentCoefficients(mean_scale=-1.0)
    with pytest.raises(ValueError):
        MomentCoefficients(var_exponent=0.0)
    with pytest.raises(ValueError):
        MomentCoefficients(mean_offset=-1.0)


def test_coefficient_overrides_flow_through():
    c = PerCoefficients(alpha=0.02, beta=-0.1)
    assert packet_error_rate(50, 10.0, c) == pytest.approx(
        min(0.02 * 50 * math.exp(-1.0), 1.0), rel=1e-12
    )
    mc = MomentCoefficients(mean_offset=20.0)
    cfg = LinkConfig(snr=1e6)
    assert service_time_mean(cfg, mc) == pytest.approx(20.0, rel=1e-12)
