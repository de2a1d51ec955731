"""Arrival/service envelopes and the optimized delay tail bound.

Cross-checks every closed form against an independent numerical route:
quadrature for the convolution, the tilted-generator spectrum for the
On-Off effective bandwidth, and a brute-force curve scan for the
horizontal distance of the test reference in ``test_reference``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from linkdelay import (
    LinkConfig,
    Overload,
    PeriodicTraffic,
    PoissonTraffic,
    OnOffTraffic,
    ThetaGridSpec,
    TimingConstants,
    arrival_curve_for,
    convolve_exponential_bounds,
    optimize_delay_ccdf,
    service_curve,
    service_distribution,
)
from linkdelay import snc
from test_reference import delay_bound_at, horizontal_distance

REL = 1e-9

FORCED_TC = TimingConstants(t_spi=0.0, frame_overhead=75)
FORCED_CFG = LinkConfig(l_d=50, d_retry=30.0, n_max_tries=3)
FORCED_MEAN = 16.716792
THETAS = ThetaGridSpec().values()

POISSON_RATE_WORKED = 14.75474092923811   # 0.03 * expm1(0.4) / 0.001
ONOFF_RATE_WORKED = 157.03772689736613    # (0.03, 0.02, r=160, theta=0.01)
MGF_FORCED_001 = 1.2012406531379949       # forced dist at theta=0.01
R_FORCED_400_001 = 21.815615469765888     # 400*0.01 / ln(mgf)


def test_periodic_curve_worked():
    ac = arrival_curve_for(PeriodicTraffic(t_pit=50.0), 400.0, 0.01)
    assert ac.rate == pytest.approx(8.0, rel=REL)
    assert ac.burst == pytest.approx(400.0, rel=REL)
    assert ac.deterministic and ac.decay is None


def test_poisson_curve_worked():
    ac = arrival_curve_for(PoissonTraffic(rate=0.03), 400.0, 0.001)
    assert ac.rate == pytest.approx(POISSON_RATE_WORKED, rel=REL)
    assert ac.burst == 0.0
    assert ac.decay == 0.001
    # the envelope rate never falls below the mean bit rate
    assert ac.rate >= 0.03 * 400.0


def test_onoff_curve_worked():
    ac = arrival_curve_for(OnOffTraffic(0.03, 0.02, rate=0.4), 400.0, 0.01)
    assert ac.rate == pytest.approx(ONOFF_RATE_WORKED, rel=REL)
    assert ac.burst == 400.0
    assert ac.decay == 0.01


def test_onoff_rate_matches_tilted_generator_spectrum():
    rng = np.random.default_rng(606)
    for _ in range(100):
        lam, mu = rng.uniform(0.001, 0.2, 2)
        r = float(rng.uniform(1.0, 500.0))
        theta = float(10 ** rng.uniform(-4, 0))
        ac = arrival_curve_for(OnOffTraffic(lam, mu, rate=r / 400.0), 400.0, theta)
        gen = np.array([[-mu, mu], [lam, -lam]]) + theta * np.diag([0.0, r])
        perron = float(max(np.linalg.eigvals(gen).real)) / theta
        assert ac.rate == pytest.approx(perron, rel=1e-9)


def test_onoff_rate_matches_numerical_effective_bandwidth():
    # finite-horizon E[e^{theta A(t)}] computed by matrix exponential from
    # the stationary start, shifted by the top eigenvalue to avoid overflow
    lam, mu, r, theta = 0.03, 0.02, 160.0, 0.01
    gen = np.array([[-mu, mu], [lam, -lam]]) + theta * np.diag([0.0, r])
    lmax = float(max(np.linalg.eigvals(gen).real))
    pi = np.array([lam / (lam + mu), mu / (lam + mu)])
    t = 2000.0
    shifted = expm((gen - lmax * np.eye(2)) * t)
    eb_t = (lmax * t + math.log(float(pi @ shifted @ np.ones(2)))) / (theta * t)
    assert eb_t == pytest.approx(ONOFF_RATE_WORKED, rel=0.05)


def test_onoff_rate_limits():
    # theta -> 0 recovers the mean rate, theta -> infinity the peak rate
    lam, mu, r = 0.03, 0.02, 160.0
    mean_rate = r * mu / (lam + mu)
    spec = OnOffTraffic(lam, mu, rate=r / 400.0)  # peak r bits/ms at 400 bits a packet
    assert arrival_curve_for(spec, 400.0, 1e-9).rate == pytest.approx(mean_rate, rel=1e-4)
    assert arrival_curve_for(spec, 400.0, 1e4).rate == pytest.approx(r, rel=1e-4)
    thetas = np.logspace(-4, 1, 30)
    rates = [arrival_curve_for(spec, 400.0, t).rate for t in thetas]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
    assert all(mean_rate - 1e-9 <= v <= r + 1e-9 for v in rates)


def test_arrival_curve_dispatch():
    periodic = arrival_curve_for(PeriodicTraffic(t_pit=50.0, horizon=10), 400.0, 0.01)
    assert periodic.deterministic and periodic.rate == pytest.approx(8.0, rel=REL)
    assert arrival_curve_for(PoissonTraffic(rate=0.03, horizon=10), 400.0, 0.001).rate == pytest.approx(
        POISSON_RATE_WORKED, rel=REL
    )
    spec = OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.4, horizon=10)
    ac = arrival_curve_for(spec, 400.0, 0.01)  # peak 0.4 pkts/ms * 400 bits
    assert ac.rate == pytest.approx(ONOFF_RATE_WORKED, rel=REL)


def test_curve_validation():
    with pytest.raises(ValueError):
        arrival_curve_for(PeriodicTraffic(t_pit=50.0), 0.0, 0.01)
    with pytest.raises(ValueError):
        arrival_curve_for(PeriodicTraffic(t_pit=0.0), 400.0, 0.01)
    with pytest.raises(ValueError):
        arrival_curve_for(PoissonTraffic(rate=0.03), 400.0, 0.0)
    with pytest.raises(ValueError):
        arrival_curve_for(OnOffTraffic(0.0, 0.02, rate=0.4), 400.0, 0.01)
    specs = (PeriodicTraffic(t_pit=50.0, horizon=10), PoissonTraffic(rate=0.03, horizon=10),
             OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.4, horizon=10))
    for spec in specs:
        with pytest.raises(ValueError, match="packet_bits"):
            arrival_curve_for(spec, 0.0, 0.01)
    for spec in specs[1:]:
        with pytest.raises(ValueError, match="theta"):
            arrival_curve_for(spec, 400.0, 0.0)


# (spec, packet_bits, theta) -> float.hex of the curve's rate, burst and decay (None when
# deterministic).  The reference optimiser in test_reference builds its curves through the
# same envelopes, so only fixed values show a change to one of them.
ENVELOPE_PINS = [
    (PeriodicTraffic(t_pit=50.0), 400.0, 0.01,
     ("0x1.0000000000000p+3", "0x1.9000000000000p+8", None)),
    (PeriodicTraffic(t_pit=3.7), 912.0, 1.0,
     ("0x1.ecf914c1bacf9p+7", "0x1.c800000000000p+9", None)),
    (PeriodicTraffic(t_pit=28.68), 912.0, 1.0,
     ("0x1.fcc95f549e86fp+4", "0x1.c800000000000p+9", None)),
    (PoissonTraffic(rate=0.03), 400.0, 0.001,
     ("0x1.d826d67300f88p+3", "0x0.0p+0", "0x1.0624dd2f1a9fcp-10")),
    (PoissonTraffic(rate=0.0137), 88.0, 0.38,
     ("0x1.5db2fc92ecb9ap+43", "0x0.0p+0", "0x1.851eb851eb852p-2")),
    # theta * packet_bits just below and at the limit of 700, past which the envelope refuses theta
    (PoissonTraffic(rate=0.0137), 912.0, 0.7675,
     ("0x1.03bc66d699ebcp+1004", "0x0.0p+0", "0x1.88f5c28f5c28fp-1")),
    (PoissonTraffic(rate=0.0137), 400.0, 1.75,
     ("0x1.da3f1c820b2ffp+1002", "0x0.0p+0", "0x1.c000000000000p+0")),
    (OnOffTraffic(0.03, 0.02, rate=0.4), 400.0, 1e-9,
     ("0x1.0000203657ad3p+6", "0x1.9000000000000p+8", "0x1.12e0be826d695p-30")),
    # switching far faster than theta * r: the direct form's numerator cancels
    (OnOffTraffic(1e8, 0.02, rate=0.4), 400.0, 1e-5,
     ("0x1.12e0be81942ebp-25", "0x1.9000000000000p+8", "0x1.4f8b588e368f1p-17")),
    (OnOffTraffic(1e12, 0.02, rate=0.4), 400.0, 1e-5,
     ("0x1.c25c2684975f1p-39", "0x1.9000000000000p+8", "0x1.4f8b588e368f1p-17")),
    (OnOffTraffic(0.03, 0.02, rate=0.4), 400.0, 0.01,
     ("0x1.3a1350f09cbbfp+7", "0x1.9000000000000p+8", "0x1.47ae147ae147bp-7")),
    (OnOffTraffic(0.03, 0.02, rate=0.4), 400.0, 1e4,
     ("0x1.3fffff9b56324p+7", "0x1.9000000000000p+8", "0x1.3880000000000p+13")),
    (OnOffTraffic(0.011, 0.07, rate=0.123), 912.0, 0.3,
     ("0x1.c08ec15b15a89p+6", "0x1.c800000000000p+9", "0x1.3333333333333p-2")),
    (OnOffTraffic(0.17, 0.0016, rate=0.3), 88.0, 0.0079,
     ("0x1.68387b304b587p+2", "0x1.6000000000000p+6", "0x1.02de00d1b7176p-7")),
]


@pytest.mark.parametrize("spec, packet_bits, theta, want", ENVELOPE_PINS)
def test_arrival_curves_are_pinned_bit_for_bit(spec, packet_bits, theta, want):
    ac = arrival_curve_for(spec, packet_bits, theta)
    assert (ac.rate.hex(), ac.burst.hex(), None if ac.decay is None else ac.decay.hex()) == want
    # the optimiser's kernel reads the same envelope
    assert spec.envelope(packet_bits)(theta) == (ac.rate, ac.burst, ac.decay)


@pytest.mark.parametrize("spec, packet_bits, theta", [
    (spec, packet_bits, theta) for spec, packet_bits, theta, _ in ENVELOPE_PINS
    if isinstance(spec, OnOffTraffic)])
def test_onoff_envelope_rate_is_the_exact_root(spec, packet_bits, theta):
    # the Perron root in 60 digits from the same float inputs: the direct
    # form, or the conjugate where its numerator cancels, stays within 4 ulps
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        lam, mu, th = mpmath.mpf(spec.lam_on_off), mpmath.mpf(spec.mu_off_on), mpmath.mpf(theta)
        tr = th * mpmath.mpf(spec.rate) * packet_bits
        want = (tr - lam - mu + mpmath.sqrt((tr - lam + mu) ** 2 + 4 * lam * mu)) / (2 * th)
        got = spec.envelope(packet_bits)(theta)[0]
        assert abs(got - want) <= 4 * math.ulp(float(want))


@pytest.mark.parametrize("packet_bits, theta", [
    (400.0, math.nextafter(1.75, math.inf)),   # just above theta * packet_bits = 700
    (912.0, 0.772),                            # 704, where exp() is still finite
    (400.0, 1.7725),                           # 709
    (400.0, 1.8),                              # 720, where exp() overflows
])
def test_poisson_curve_past_the_mgf_limit_is_refused(packet_bits, theta):
    spec = PoissonTraffic(rate=0.0137)
    assert spec.envelope(packet_bits)(theta) is None
    with pytest.raises(ValueError, match=r"exp\(\)'s range"):
        arrival_curve_for(spec, packet_bits, theta)


def test_periodic_curve_needs_a_positive_theta_too():
    with pytest.raises(ValueError, match="theta"):
        arrival_curve_for(PeriodicTraffic(t_pit=50.0), 400.0, 0.0)


def test_service_curve_worked_and_limit():
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.1)
    sc = service_curve(dist, 400.0, 0.01)
    assert sc.rate == pytest.approx(R_FORCED_400_001, rel=REL)
    assert dist.mgf(0.01) == pytest.approx(MGF_FORCED_001, rel=REL)
    # theta -> 0 limit equals packet_bits / mean service time
    tiny = service_curve(dist, 400.0, 1e-7)
    assert tiny.rate == pytest.approx(400.0 / FORCED_MEAN, rel=1e-3)


def test_service_curve_monotone_and_jensen_bounded():
    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.2)
    thetas = np.logspace(-5, np.log10(0.05), 40)
    rates = np.array([service_curve(dist, 400.0, t).rate for t in thetas])
    assert np.all(np.diff(rates) <= 1e-9)  # non-increasing in theta
    assert np.all(rates <= 400.0 / dist.mean() + 1e-9)
    with pytest.raises(ValueError):
        service_curve(dist, 400.0, 0.0)
    with pytest.raises(ValueError):
        service_curve(dist, 0.0, 0.01)


def test_horizontal_distance_closed_form_vs_scan():
    ac = arrival_curve_for(PoissonTraffic(rate=0.03), 400.0, 0.001)
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.03)
    sc = service_curve(dist, 400.0, 0.001)
    for x in (0.0, 100.0, 3000.0):
        h = horizontal_distance(ac, x, sc)
        # brute-force largest horizontal gap between (alpha + x) and beta
        t = np.linspace(0.0, 500.0, 200_001)
        gap = (ac.rate * t + ac.burst + x - sc.rate * t) / sc.rate
        assert h == pytest.approx(float(np.max(np.maximum(gap, 0.0))), rel=1e-9)


def test_convolution_worked_values():
    assert convolve_exponential_bounds(1.0, 1.0, 1.0) == pytest.approx(
        0.7357588823428847, rel=REL
    )
    assert convolve_exponential_bounds(2.0, 1.0, 3.0) == pytest.approx(
        0.09709538455906153, rel=REL
    )
    assert convolve_exponential_bounds(2.0, 3.0, 0.0) == 1.0


def test_convolution_against_quadrature():
    # tail of Exp(a) + exponential bound exp(-b x):
    # integral_0^x a e^{-a u} e^{-b (x-u)} du + e^{-a x}
    rng = np.random.default_rng(707)
    for _ in range(100):
        a, b = 10 ** rng.uniform(-3.0, 0.5, 2)
        x = float(rng.uniform(0.0, 12.0) / min(a, b))
        closed = convolve_exponential_bounds(a, b, x)
        integral, err = quad(lambda u: a * math.exp(-a * u) * math.exp(-b * (x - u)), 0.0, x,
                             epsabs=1e-14, epsrel=1e-12, limit=200)
        reference = min(integral + math.exp(-a * x), 1.0)
        assert closed == pytest.approx(reference, rel=1e-6)
        # symmetric in the two decay rates
        assert convolve_exponential_bounds(b, a, x) == pytest.approx(closed, rel=1e-9)


def test_convolution_equal_rates_against_quadrature():
    for a, x in ((0.5, 3.0), (2.0, 1.7), (0.01, 400.0)):
        closed = convolve_exponential_bounds(a, a, x)
        integral, _ = quad(lambda u: a * math.exp(-a * u) * math.exp(-a * (x - u)), 0.0, x,
                           epsabs=1e-14, epsrel=1e-12)
        assert closed == pytest.approx(min(integral + math.exp(-a * x), 1.0), rel=1e-9)
        assert closed == pytest.approx((1.0 + a * x) * math.exp(-a * x), rel=1e-12)


def test_convolution_validation():
    with pytest.raises(ValueError):
        convolve_exponential_bounds(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        convolve_exponential_bounds(1.0, 1.0, -1.0)


# (a, b, x, tail): 1 - conv(fbar, gbar)(x) for the bounds exp(-a*x) and exp(-b*x), to 25 digits;
# see test_convolution_against_mpmath for the script that made them
CONVOLUTION_REFERENCE = [
    (0.01, 0.01, 300.0, "0.1991482734714557625897557"),
    (0.01, 0.010000000000001, 300.0, "0.1991482734714333763161553"),
    (0.01, 0.0100000000001, 300.0, "0.1991482734692153474370558"),
    (0.01, 0.010000000010000001, 300.0, "0.1991482732474139366211075"),
    (0.01, 0.01000001, 300.0, "0.1991480494298721501721837"),
    (0.01, 0.01001, 300.0, "0.1989244555376774520378918"),
    (0.5, 0.5, 3.0, "0.5578254003710745723332012"),
    (0.5, 0.50000000000005, 3.0, "0.5578254003710494902537711"),
    (0.5, 0.500000000005, 3.0, "0.5578254003685643578238478"),
    (0.5, 0.5000000005, 3.0, "0.5578254001200531215221221"),
    (0.5, 0.5000005, 3.0, "0.5578251493497699366683291"),
    (0.5, 0.5005, 3.0, "0.5575745044045702981557298"),
    (1e-05, 1e-05, 250000.0, "0.2872974951836457411258281"),
    (1e-05, 1.0000000000001e-05, 250000.0, "0.2872974951836201024183263"),
    (1e-05, 1.0000000000100002e-05, 250000.0, "0.2872974951810805667125835"),
    (1e-05, 1.0000000010000002e-05, 250000.0, "0.2872974949271300816858917"),
    (1e-05, 1.000001e-05, 250000.0, "0.2872972386682388298365272"),
    (1e-05, 1.0009999999999999e-05, 250000.0, "0.2870411931924282403318003"),
]


@pytest.mark.parametrize("a, b, x, want", CONVOLUTION_REFERENCE)
def test_convolution_against_mpmath(a, b, x, want):
    """Equal rates, and relative gaps of 1e-13 to 1e-3, where a difference of exponentials loses digits.

    The values were computed with mpmath at 50 digits from the exact
    floats by this script (mpmath 1.3):

        import mpmath

        mpmath.mp.dps = 50


        def tail(a, b, x):
            a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
            if a == b:
                return (1 + a * x) * mpmath.exp(-a * x)
            return (a * mpmath.exp(-b * x) - b * mpmath.exp(-a * x)) / (a - b)


        for a, x in ((0.01, 300.0), (0.5, 3.0), (1e-05, 250000.0)):
            for gap in (0.0, 1e-13, 1e-11, 1e-09, 1e-06, 0.001):
                b = a * (1.0 + gap)
                print(f"    ({a!r}, {b!r}, {x!r}, \"{mpmath.nstr(tail(a, b, x), 25)}\"),")
    """
    for got in (convolve_exponential_bounds(a, b, x), convolve_exponential_bounds(b, a, x)):
        assert got == pytest.approx(float(want), rel=1e-15, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-9, 1e3), st.floats(-1e-6, 1e-6) | st.floats(-0.9, 10.0) | st.just(0.0),
       st.floats(0.0, 50.0))
def test_convolution_is_symmetric_bit_for_bit(a, gap, ax):
    b = a * (1.0 + gap)
    x = ax / a
    got = convolve_exponential_bounds(a, b, x)
    assert got == convolve_exponential_bounds(b, a, x)
    assert 0.0 <= got <= 1.0


def test_delay_bound_at_deterministic_and_stochastic():
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.03)
    sc = service_curve(dist, 400.0, 0.01)
    ac = arrival_curve_for(PeriodicTraffic(t_pit=50.0), 400.0, 0.01)
    delay, prob = delay_bound_at(ac, sc, 500.0)
    assert delay == pytest.approx(900.0 / sc.rate, rel=REL)
    assert prob == pytest.approx(math.exp(-sc.decay * 500.0), rel=REL)

    scp = service_curve(dist, 400.0, 0.001)
    acp = arrival_curve_for(PoissonTraffic(rate=0.03), 400.0, 0.001)
    delay, prob = delay_bound_at(acp, scp, 500.0)
    assert delay == pytest.approx(500.0 / scp.rate, rel=REL)
    assert prob == pytest.approx(
        convolve_exponential_bounds(acp.decay, scp.decay, 500.0), rel=REL
    )


def test_optimizer_deterministic_service_closed_form():
    # lossless link: single service atom t1, so R(theta) = L/t1 for all
    # theta and the bound exp(-theta * (d - t1)) falls all the way to the
    # largest feasible exponent, past the grid's top: the MGF's cap
    # theta * max_duration <= 700, where max_duration counts the retry
    # atoms of probability 0 too
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.0)
    t1 = dist.durations[0]
    traffic = PeriodicTraffic(t_pit=50.0, horizon=100)
    grid = [t1 + 5.0, t1 + 10.0, t1 + 20.0, t1 + 40.0]
    ccdf = optimize_delay_ccdf(traffic, dist, 400.0, grid, THETAS)
    theta_max = 700.0 / dist.max_duration
    for point, d in zip(ccdf.points, grid):
        assert point.prob == pytest.approx(math.exp(-theta_max * (d - t1)), rel=0.01)
        assert point.theta == pytest.approx(theta_max, rel=0.01)


@pytest.mark.parametrize("traffic, p_e", [
    (PeriodicTraffic(t_pit=40.0), 0.2),     # the envelope meets the service curve
    (PeriodicTraffic(t_pit=40.0), 0.0),     # the service-time MGF's cap, past the grid
    (PoissonTraffic(rate=0.025), 0.2),
    (OnOffTraffic(lam_on_off=0.05, mu_off_on=0.05, rate=0.05), 0.2),
])
def test_edge_points_sit_on_the_exact_stability_edge(traffic, p_e):
    # where the bound still falls at the largest stable exponent, the
    # chosen theta is feasible and the next float is not
    dist = service_distribution(LinkConfig(), TimingConstants(), p_e)
    curves_at = snc._curve_builder(traffic, dist, 400.0)
    ccdf = optimize_delay_ccdf(traffic, dist, 400.0, [3.0 * (k + 1) for k in range(64)], THETAS)
    edge = max(p.theta for p in ccdf.points if p.theta is not None)
    assert edge not in THETAS and sum(p.theta == edge for p in ccdf.points) > 1
    assert not isinstance(curves_at(edge), str)
    assert isinstance(curves_at(math.nextafter(edge, math.inf)), str)


def test_optimizer_never_beats_grid_scan():
    link, tc = LinkConfig(), TimingConstants()
    dist = service_distribution(link, tc, 0.03186372375543293)
    delays = np.arange(15.0, 95.0, 5.0)
    for traffic in (
        PeriodicTraffic(t_pit=50.0, horizon=100),
        PoissonTraffic(rate=0.03, horizon=100),
        OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.02, horizon=100),
    ):
        ccdf = optimize_delay_ccdf(traffic, dist, 400.0, delays, THETAS)
        for point in ccdf.points:
            best_grid = 1.0
            for theta in THETAS:
                try:
                    sc = service_curve(dist, 400.0, theta)
                except (ValueError, OverflowError):
                    continue
                ac = arrival_curve_for(traffic, 400.0, theta)
                if ac.rate > sc.rate:
                    continue
                x = point.delay * sc.rate - ac.burst
                prob = 1.0 if x < 0.0 else delay_bound_at(ac, sc, x)[1]
                best_grid = min(best_grid, prob)
            assert point.prob <= best_grid + 1e-12


def test_optimizer_envelope_monotone_and_vacuous_points():
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.03186372375543293)
    traffic = PeriodicTraffic(t_pit=50.0, horizon=100)
    grid = [1.0, 5.0, 20.0, 40.0, 80.0]
    ccdf = optimize_delay_ccdf(traffic, dist, 400.0, grid, THETAS)
    probs = ccdf.probs()
    assert np.all(np.diff(probs) <= 1e-15)
    # 1 ms of delay cannot absorb the one-packet burst: vacuous bound
    assert ccdf.points[0].prob == 1.0 and ccdf.points[0].theta is None
    assert ccdf.points[-1].prob < 1.0 and ccdf.points[-1].theta is not None


def test_overload_message_names_its_cause():
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.03186372375543293)
    with pytest.raises(Overload, match="arrival envelope exceeds the service curve everywhere"):
        optimize_delay_ccdf(PeriodicTraffic(t_pit=9.0, horizon=10), dist, 400.0, [20.0], THETAS)
    # a light load, but every exponent too small for the MGF to leave 1
    with pytest.raises(Overload, match="MGF rounds to 1 up to its largest exponent 1e-18") as info:
        optimize_delay_ccdf(PeriodicTraffic(t_pit=50.0, horizon=10), dist, 400.0, [20.0],
                            np.geomspace(1e-30, 1e-18, 5))
    assert "envelope" not in str(info.value)


def test_overload_message_names_each_cause_with_its_exponents():
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.03186372375543293)
    thetas = np.geomspace(1e-30, 1e3, 40)
    with pytest.raises(Overload) as info:
        optimize_delay_ccdf(PoissonTraffic(rate=1 / 9.0, horizon=10), dist, 400.0, [20.0], thetas)
    causes = str(info.value).split("; ")[1:]
    # in exponent order: below the MGF's resolution, overloaded, then past
    # the overflow guard of the packet's bits and of the service time
    assert [c.split(", ", 1)[1] for c in causes] == [
        "the service-time MGF rounds to 1, so there is no service curve",
        "the arrival envelope exceeds the service curve",
        "the MGF of one packet's bits would leave exp()'s range",
        "the service-time MGF would leave exp()'s range",
    ]
    assert causes[0].startswith("at 16 exponents from 1e-30 to ")
    assert causes[-1].endswith("to 1e+03, the service-time MGF would leave exp()'s range")
    counts = [1 if c.startswith("at exponent ") else int(c.split()[1]) for c in causes]
    assert sum(counts) == thetas.size


def test_optimizer_overload_and_validation():
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.03186372375543293)
    with pytest.raises(Overload):
        optimize_delay_ccdf(PeriodicTraffic(t_pit=9.0, horizon=10), dist, 400.0, [20.0], THETAS)
    with pytest.raises(ValueError):
        optimize_delay_ccdf(PeriodicTraffic(t_pit=50.0, horizon=10), dist, 400.0, [], THETAS)
    for spec in (PeriodicTraffic(t_pit=50.0, horizon=10), PoissonTraffic(rate=0.03, horizon=10)):
        with pytest.raises(ValueError, match="packet_bits"):
            optimize_delay_ccdf(spec, dist, 0.0, [20.0], THETAS)
    with pytest.raises(ValueError):
        optimize_delay_ccdf(PeriodicTraffic(t_pit=50.0, horizon=10), dist, 400.0, [5.0, 5.0], THETAS)
    with pytest.raises(ValueError):
        optimize_delay_ccdf(PeriodicTraffic(t_pit=50.0, horizon=10), dist, 400.0, [-1.0, 5.0], THETAS)
    # a NaN exponent made every point vacuous, an infinite delay got a bound of 0
    nan, inf = float("nan"), float("inf")
    periodic = PeriodicTraffic(t_pit=50.0, horizon=10)
    for delays in ([20.0, nan], [nan], [20.0, inf], [-inf, 20.0]):
        with pytest.raises(ValueError):
            optimize_delay_ccdf(periodic, dist, 400.0, delays, THETAS)
    for thetas in ([1e-3, nan, 1e-2], [1e-3, inf], [-inf, 1e-3]):
        with pytest.raises(ValueError):
            optimize_delay_ccdf(periodic, dist, 400.0, [20.0, 40.0], thetas)


def scalar_minima(curves, delays):
    """For each delay, np.argmin over the scalar bound of every curve, and the bound it picks."""
    out = []
    for d in delays:
        probs = [snc._bound_at(c)(d) for c in curves]
        i = int(np.argmin(probs))
        out.append((i, probs[i]))
    return out


def typed(minima):
    return [(i, type(v), float.hex(v)) for i, v in minima]


@st.composite
def grid_columns(draw):
    """Curves whose bounds nearly or exactly tie, and delays from a burst's reach to the tail.

    The rates and decays differ by about 1e-12 relative, so that the
    columns' bounds agree to a few digits; unequal decay rates sit 5e-13
    to 1e-9 apart, where they nearly meet; repeated curves tie
    exactly; and a burst of 400 bits makes the bound 1 at the delays
    too short to absorb it.
    """
    decay = 10.0 ** draw(st.floats(-6.0, 0.0))
    rate = draw(st.sampled_from([1.0, 50.0, 400.0]))
    near = st.floats(-1e-12, 1e-12).map(lambda e: 1.0 + e)
    curves = []
    for kind in draw(st.lists(st.sampled_from(["unequal", "equal", "deterministic", "repeat"]),
                              min_size=1, max_size=24)):
        if kind == "repeat" and curves:
            curves.append(draw(st.sampled_from(curves)))
            continue
        r, a = rate * draw(near), decay * draw(near)
        burst = draw(st.sampled_from([0.0, 400.0]))
        if kind == "deterministic":
            curves.append((r, burst, None, a))
        elif kind == "equal":
            curves.append((r, burst, a, a))
        else:
            gap = draw(st.sampled_from([5e-13, 1e-11, -1e-11, 1e-10, -1e-10, 1e-9, -1e-9]))
            curves.append((r, burst, a, a * (1.0 + gap)))
    scale = 1.0 / (decay * rate)
    delays = sorted(set(draw(st.lists(st.floats(-6.0, 2.5).map(lambda e: 10.0 ** e * scale),
                                      min_size=1, max_size=40))))
    return curves, delays


@settings(max_examples=300, deadline=None)
@given(grid_columns())
def test_grid_minima_is_the_argmin_of_the_scalar_bounds(columns):
    curves, delays = columns
    assert typed(snc._grid_minima(curves, delays)) == typed(scalar_minima(curves, delays))


def nudge(mode):
    """A function moving a float two ulps up, down or either way at random; the identity for None."""
    rng = np.random.default_rng(17)

    def nudged(v):
        if mode is None:
            return v
        up = {"up": True, "down": False}.get(mode)
        toward = math.inf if (rng.random() < 0.5 if up is None else up) else -math.inf
        return math.nextafter(math.nextafter(v, toward), toward)

    return nudged


@pytest.mark.parametrize("ulp_shift", [None, "up", "down", "mixed"])
@pytest.mark.parametrize("gap", [5e-13, 1e-11, -1e-11, 1e-10, -1e-10, 1e-9, -1e-9])
def test_grid_minima_with_nearly_equal_decay_rates(ulp_shift, gap):
    # the two decay rates nearly meet, and the columns' bounds lie
    # close together; moving each column's second decay rate by two ulps
    # reorders bounds that differ in their last digits
    shift = nudge(ulp_shift)
    rng = np.random.default_rng(31)
    for decay in (1e-6, 1e-3, 0.3):
        rate = 400.0 * (1.0 + rng.uniform(-1e-12, 1e-12, 24))
        a = decay * (1.0 + rng.uniform(-1e-12, 1e-12, 24))
        curves = [(float(r), 0.0, float(ai), shift(float(ai * (1.0 + gap)))) for r, ai in zip(rate, a)]
        delays = (np.logspace(-6.0, 2.5, 40) / (decay * 400.0)).tolist()
        assert typed(snc._grid_minima(curves, delays)) == typed(scalar_minima(curves, delays))


@pytest.mark.parametrize("ulp_shift", [None, "mixed"])
def test_grid_minima_with_negative_and_clamped_cells(ulp_shift):
    # bursts that the smaller delays cannot absorb (x < 0, a bound of 1
    # exactly) and tiny x, where the bound lies within an ulp or so of 1
    shift = nudge(ulp_shift)
    rng = np.random.default_rng(77)
    decay = 10.0 ** rng.uniform(-6.0, 0.0, 30)
    gap = 10.0 ** rng.uniform(-11.0, -9.0, 30) * rng.choice([-1.0, 1.0], 30)
    burst = rng.choice([0.0, 400.0], 30)
    curves = [(50.0, float(bu), float(a), shift(float(a * (1.0 + g)))) for a, g, bu in zip(decay, gap, burst)]
    curves += [(50.0, 400.0, None, float(a)) for a in decay[:5]]
    delays = sorted({8.0 + f for f in 10.0 ** rng.uniform(-14.0, -3.0, 30)} | {1.0, 7.9, 8.0})
    assert any(1.0 - 1e-15 < snc._bound_at(c)(d) < 1.0 for c in curves[:30] for d in delays)
    assert typed(snc._grid_minima(curves, delays)) == typed(scalar_minima(curves, delays))


@pytest.mark.parametrize("tie", ["subnormal", "normal"])
def test_grid_minima_takes_the_first_of_equal_bounds(tie):
    # two deterministic columns whose scalar bounds are equal
    y_first = -740.0 if tie == "subnormal" else -1e-3
    y_second = math.nextafter(y_first, 0.0)
    assert math.exp(y_first) == math.exp(y_second)
    curves = [(1.0, 0.0, None, -y_first), (1.0, 0.0, None, -y_second), (1.0, 0.0, None, -0.5 * y_first)]
    assert snc._grid_minima(curves, [1.0]) == [(0, math.exp(y_first))]


@pytest.mark.parametrize("traffic", [
    PeriodicTraffic(t_pit=40.0),
    PoissonTraffic(rate=0.025),
    OnOffTraffic(lam_on_off=0.05, mu_off_on=0.05, rate=0.05),
])
def test_grid_scan_builds_each_bound_once(monkeypatch, traffic):
    # the optimiser's scan builds one bound function per stable grid
    # exponent, however many delays it covers, and picks the scalar argmin
    built, scans = [], []
    bound_at, grid_minima = snc._bound_at, snc._grid_minima

    def counting(curves):
        built.append(curves)
        return bound_at(curves)

    def recording(curves, delays):
        before = len(built)
        minima = grid_minima(curves, delays)
        scans.append((len(built) - before, curves, delays, minima))
        return minima

    monkeypatch.setattr(snc, "_bound_at", counting)
    monkeypatch.setattr(snc, "_grid_minima", recording)
    dist = service_distribution(LinkConfig(), TimingConstants(), 0.2)
    delays = [3.0 * (k + 1) for k in range(64)]
    optimize_delay_ccdf(traffic, dist, 8.0 * 50, delays, THETAS)
    [(n_built, curves, scanned, minima)] = scans
    assert scanned == delays and 1 < len(curves) <= len(THETAS)
    assert n_built == len(curves)
    assert typed(minima) == typed(scalar_minima(curves, delays))
