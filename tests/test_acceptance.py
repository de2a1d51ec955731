"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
-s, or in captured output on failure) and the pytest -v status line carries
the same verdict.  Tolerances are part of the contract and are asserted
exactly as stated.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from linkdelay import (
    LinkConfig,
    OnOffTraffic,
    PeriodicTraffic,
    PoissonTraffic,
    ThetaGridSpec,
    TimingConstants,
    arrival_curve_for,
    attempt_pmf,
    convolve_exponential_bounds,
    delivered_duration,
    dominance_report,
    dropped_duration,
    empirical_ccdf,
    equivalent_arrival,
    inputs_from_distribution,
    inputs_from_fitted_models,
    mean_delay,
    optimize_delay_ccdf,
    packet_error_rate,
    plr_mean,
    plr_var,
    run_simulation,
    service_components,
    service_curve,
    service_distribution,
    service_time_mean,
    service_time_var,
    traffic_intensity,
    waiting_time,
)
from linkdelay.cli import main
from test_reference import delay_bound_at

TC = TimingConstants()
FORCED_TC = TimingConstants(t_spi=0.0, frame_overhead=75)
FORCED_CFG = LinkConfig(l_d=50, d_retry=30.0, n_max_tries=3)
DELAY_GRID = np.arange(15.0, 95.0, 5.0)
THETAS = ThetaGridSpec().values()


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_criterion_1_formula_fidelity():
    checks: list[tuple[str, float, float]] = []

    def add(label, got, want):
        checks.append((label, float(got), float(want)))

    add("per(50,20)", packet_error_rate(50, 20.0), 0.03186372375543293)
    add("per(110,5)", packet_error_rate(110, 5.0), 0.6650921062593488)
    add("mean_t(N3,D30,l50,s20)",
        service_time_mean(LinkConfig(l_d=50, snr=20.0, n_max_tries=3, d_retry=30.0)),
        17.721538598682375)
    add("mean_t(N1,D60,l110,s10)",
        service_time_mean(LinkConfig(l_d=110, snr=10.0, n_max_tries=1, d_retry=60.0)),
        134.27290791723203)
    add("var_t(N3,D30,s20)",
        service_time_var(LinkConfig(snr=20.0, n_max_tries=3, d_retry=30.0)),
        134.42508459323264)
    add("var_t(N5,D60,s15)",
        service_time_var(LinkConfig(snr=15.0, n_max_tries=5, d_retry=60.0)),
        948.593021056779)
    add("plr_mean(50,20,60)", plr_mean(50, 20.0, 60), 0.04707169797927564)
    add("plr_var(50,20)", plr_var(50, 20.0), 0.013533528323661271)
    add("plr_var(100,0)", plr_var(100, 0.0), 0.2)
    arr = equivalent_arrival(50.0, 0.04707169797927564, 0.013533528323661271)
    add("lambda", arr.lam, 0.019058566040414487)
    add("var_a", arr.var_a, 5.413411329464508e-06)

    comps_default = service_components(LinkConfig(), TC)
    add("t_frame(l50)", comps_default.t_frame, 2.144)
    comps = service_components(FORCED_CFG, FORCED_TC)
    add("t_succ(forced)", comps.t_succ, 11.464)
    add("t_fail(forced)", comps.t_fail, 17.696)
    add("t_retry(forced)", comps.t_retry, 47.696)
    add("delivered(k=1)", delivered_duration(1, comps, 0.0), 11.464)
    add("delivered(k=2)", delivered_duration(2, comps, 0.0), 59.160)
    add("dropped(N=3)", dropped_duration(comps, 0.0, 3), 113.088)

    probs, drop = attempt_pmf(0.1, 3)
    add("pmf(k=1)", probs[0], 0.9)
    add("pmf(k=2)", probs[1], 0.09)
    add("pmf(k=3)", probs[2], 0.009)
    add("pmf(drop)", drop, 0.001)

    dist = service_distribution(FORCED_CFG, FORCED_TC, 0.1)
    add("dist mean", dist.mean(), 16.716792)
    atom = service_distribution(FORCED_CFG, FORCED_TC, 0.0)
    add("mgf single atom", atom.mgf(0.01), math.exp(0.11464))

    fitted = inputs_from_fitted_models(LinkConfig())
    add("rho(worked)", traffic_intensity(fitted), 0.33774711372074245)
    add("wq(worked)", waiting_time(fitted), 1.9342682443968746)
    add("delay(worked)", mean_delay(fitted), 19.65580684307925)

    ac = arrival_curve_for(PeriodicTraffic(t_pit=50.0), 400.0, 0.01)
    add("periodic rate", ac.rate, 8.0)
    add("periodic burst", ac.burst, 400.0)
    add("poisson rate", arrival_curve_for(PoissonTraffic(rate=0.03), 400.0, 0.001).rate,
        14.75474092923811)
    add("onoff rate", arrival_curve_for(OnOffTraffic(0.03, 0.02, rate=0.4), 400.0, 0.01).rate,
        157.03772689736613)
    add("service R", service_curve(dist, 400.0, 0.01).rate, 21.815615469765888)
    add("conv(1,1,1)", convolve_exponential_bounds(1.0, 1.0, 1.0), 0.7357588823428847)
    add("conv(2,1,3)", convolve_exponential_bounds(2.0, 1.0, 3.0), 0.09709538455906153)

    failures = [
        (label, got, want)
        for label, got, want in checks
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)
    ]
    _report(1, "formula fidelity", not failures,
            f"{len(checks) - len(failures)}/{len(checks)} worked values within 1e-9")
    assert not failures, failures


def test_criterion_2_service_distribution_sampling():
    dist = service_distribution(LinkConfig(n_max_tries=5), TC, 0.3)
    n = 1_000_000
    attempts, durations, delivered = dist.sample_many(np.random.default_rng(20240), n)

    probs, drop = attempt_pmf(0.3, 5)
    emp = np.array(
        [np.count_nonzero(delivered & (attempts == k)) / n for k in range(1, 6)]
        + [np.count_nonzero(~delivered) / n]
    )
    exact = np.append(probs, drop)
    tv = 0.5 * float(np.abs(emp - exact).sum())

    mgf_errs = []
    for theta in (1e-4, 1e-3, 1e-2):
        emp_mgf = float(np.exp(theta * durations).mean())
        mgf_errs.append(abs(emp_mgf - dist.mgf(theta)) / dist.mgf(theta))

    ok = tv < 0.005 and all(e < 0.01 for e in mgf_errs)
    _report(2, "service-time sampling", ok,
            f"TV={tv:.2e} mgf_rel_err={[f'{e:.2e}' for e in mgf_errs]}")
    assert tv < 0.005
    assert all(e < 0.01 for e in mgf_errs)


# spans SNR {10,15,20,25}, l_D {50,110}, N {1,3,5}; all rho <= 0.7
MEAN_DELAY_CONFIGS = (
    LinkConfig(l_d=50, snr=10.0, n_max_tries=3, d_retry=30.0, t_pit=50.0),
    LinkConfig(l_d=50, snr=15.0, n_max_tries=3, d_retry=30.0, t_pit=50.0),
    LinkConfig(l_d=50, snr=20.0, n_max_tries=3, d_retry=30.0, t_pit=50.0),
    LinkConfig(l_d=50, snr=25.0, n_max_tries=3, d_retry=30.0, t_pit=50.0),
    LinkConfig(l_d=110, snr=15.0, n_max_tries=3, d_retry=30.0, t_pit=50.0),
    LinkConfig(l_d=110, snr=10.0, n_max_tries=5, d_retry=60.0, t_pit=150.0),
    LinkConfig(l_d=50, snr=25.0, n_max_tries=1, d_retry=60.0, t_pit=25.0),
    LinkConfig(l_d=110, snr=20.0, n_max_tries=5, d_retry=30.0, t_pit=50.0),
)


def test_criterion_3_mean_delay_validation():
    sims, preds, errs = [], [], []
    for i, link in enumerate(MEAN_DELAY_CONFIGS):
        p_e = packet_error_rate(link.l_d, link.snr)
        dist = service_distribution(link, TC, p_e)
        inputs = inputs_from_distribution(dist, link.t_pit)
        assert traffic_intensity(inputs) <= 0.7
        pred = mean_delay(inputs)
        traffic = PeriodicTraffic(t_pit=link.t_pit, horizon=1_000_000)
        result = run_simulation(link, TC, traffic, p_e, seed=1000 + i)
        sims.append(result.mean_delay)
        preds.append(pred)
        errs.append(abs(result.mean_delay - pred) / pred)

    within = all(e <= 0.25 for e in errs)
    # first four configs sweep SNR 10->25 at fixed payload: delay must fall
    snr_sim = all(b < a for a, b in zip(sims[:4], sims[1:4]))
    snr_pred = all(b < a for a, b in zip(preds[:4], preds[1:4]))
    # config 5 doubles the payload of config 2 at the same SNR: delay must rise
    size_sim = sims[4] > sims[1]
    size_pred = preds[4] > preds[1]
    ok = within and snr_sim and snr_pred and size_sim and size_pred
    _report(3, "mean-delay within 25% + trends", ok,
            f"max_rel_err={max(errs):.3f} over {len(errs)} configs")
    assert within, errs
    assert snr_sim and snr_pred
    assert size_sim and size_pred


DOMINANCE_TRAFFICS = (
    ("periodic", PeriodicTraffic(t_pit=50.0, horizon=20000)),
    ("poisson 30/s", PoissonTraffic(rate=0.03, horizon=20000)),
    # the On-Off experiment names lambda=30/s, mu=20/s, r=20/s; both readings
    # of which rate leaves the On state are exercised
    ("onoff 30/20", OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.02, horizon=20000)),
    ("onoff swapped", OnOffTraffic(lam_on_off=0.02, mu_off_on=0.03, rate=0.02, horizon=20000)),
)


def test_criterion_4_bound_dominance():
    link = LinkConfig()
    p_e = packet_error_rate(link.l_d, link.snr)
    dist = service_distribution(link, TC, p_e)
    total = 0
    for name, traffic in DOMINANCE_TRAFFICS:
        ccdf = optimize_delay_ccdf(traffic, dist, 400.0, DELAY_GRID, THETAS)
        for seed in (101, 202, 303):
            result = run_simulation(link, TC, traffic, p_e, seed=seed)
            emp = empirical_ccdf(result.delivered_delays, DELAY_GRID, confidence=0.99)
            violations = dominance_report(
                emp, ccdf.delays(), ccdf.probs(), min_bound_prob=1e-3
            )
            total += len(violations)
    ok = total == 0
    _report(4, "bound dominates 99% empirical envelope", ok,
            f"{total} violations over {len(DOMINANCE_TRAFFICS)} traffics x 3 seeds")
    assert total == 0


def test_criterion_5_snc_internal_consistency():
    link = LinkConfig()
    dist = service_distribution(link, TC, packet_error_rate(link.l_d, link.snr))

    rates = np.array([service_curve(dist, 400.0, t).rate for t in THETAS])
    monotone = bool(np.all(np.diff(rates) <= 1e-9))
    limit_err = abs(service_curve(dist, 400.0, 1e-7).rate - 400.0 / dist.mean()) / (
        400.0 / dist.mean()
    )

    rng = np.random.default_rng(505)
    conv_err = 0.0
    for _ in range(100):
        a, b = 10 ** rng.uniform(-3.0, 0.5, 2)
        x = float(rng.uniform(0.0, 12.0) / min(a, b))
        closed = convolve_exponential_bounds(a, b, x)
        integral, _ = quad(lambda u: a * math.exp(-a * u) * math.exp(-b * (x - u)), 0.0, x,
                           epsabs=1e-14, epsrel=1e-12, limit=200)
        reference = min(integral + math.exp(-a * x), 1.0)
        conv_err = max(conv_err, abs(closed - reference) / reference)

    optimum_beats_grid = True
    for _, traffic in DOMINANCE_TRAFFICS[:3]:
        ccdf = optimize_delay_ccdf(traffic, dist, 400.0, DELAY_GRID, THETAS)
        for point in ccdf.points:
            for theta in THETAS:
                try:
                    sc = service_curve(dist, 400.0, theta)
                except (ValueError, OverflowError):
                    continue
                ac = arrival_curve_for(traffic, 400.0, theta)
                if ac.rate > sc.rate:
                    continue
                x = point.delay * sc.rate - ac.burst
                grid_prob = 1.0 if x < 0.0 else delay_bound_at(ac, sc, x)[1]
                if point.prob > grid_prob + 1e-12:
                    optimum_beats_grid = False

    ok = monotone and limit_err < 0.001 and conv_err < 1e-6 and optimum_beats_grid
    _report(5, "SNC internal consistency", ok,
            f"R_monotone={monotone} limit_err={limit_err:.2e} conv_err={conv_err:.2e}")
    assert monotone
    assert limit_err < 0.001
    assert conv_err < 1e-6
    assert optimum_beats_grid


def test_criterion_6_conservation_and_determinism(tmp_path):
    rng = np.random.default_rng(909)
    conserved = True
    for _ in range(12):
        link = LinkConfig(
            l_d=int(rng.integers(1, 115)),
            snr=float(rng.uniform(5.0, 25.0)),
            n_max_tries=int(rng.integers(1, 6)),
            q_max=int(rng.integers(1, 10)),
            t_pit=float(rng.uniform(5.0, 80.0)),
        )
        kind = rng.integers(0, 3)
        if kind == 0:
            traffic = PeriodicTraffic(t_pit=link.t_pit, horizon=3000)
        elif kind == 1:
            traffic = PoissonTraffic(rate=float(rng.uniform(0.005, 0.1)), horizon=3000)
        else:
            traffic = OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02,
                                   rate=float(rng.uniform(0.01, 0.08)), horizon=3000)
        p_e = float(rng.uniform(0.0, 0.95))
        result = run_simulation(link, TC, traffic, p_e, seed=int(rng.integers(1, 10**6)))
        if result.n_delivered + result.n_queue_drops + result.n_retry_drops != result.n_arrivals:
            conserved = False

    byte_identical = True
    for i, argv in enumerate((
        ["simulate"],
        ["simulate", "--format", "json"],
        ["validate"],
        ["delay-bound"],
    )):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert main(argv + ["--out", str(a)]) in (0, 4)
        assert main(argv + ["--out", str(b)]) in (0, 4)
        if a.read_bytes() != b.read_bytes():
            byte_identical = False

    ok = conserved and byte_identical
    _report(6, "conservation + determinism", ok,
            f"conserved={conserved} byte_identical={byte_identical}")
    assert conserved
    assert byte_identical


def test_criterion_7_degenerate_oracle():
    link = LinkConfig()
    dist = service_distribution(link, TC, 0.0)
    t1 = delivered_duration(1, service_components(link, TC), TC.t_spi)

    result = run_simulation(link, TC, PeriodicTraffic(t_pit=50.0, horizon=20000), 0.0, seed=11)
    delays_exact = bool(np.all(result.delivered_delays == t1))

    target = t1 + 20.0
    ccdf = optimize_delay_ccdf(
        PeriodicTraffic(t_pit=50.0, horizon=20000), dist, 400.0, [target], THETAS
    )
    point = ccdf.points[0]
    bound_small = point.prob < 1e-6 and point.theta is not None

    ok = delays_exact and bound_small
    _report(7, "degenerate lossless oracle", ok,
            f"all_delays=={t1} ms: {delays_exact}; P(delay>{target:.3f}) <= {point.prob:.2e}")
    assert delays_exact
    assert bound_small
