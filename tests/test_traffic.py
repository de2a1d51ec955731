"""Arrival-instant generators: exactness, long-run rates, determinism; the kinds' one home."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import linkdelay
from linkdelay import OnOffTraffic, PeriodicTraffic, PoissonTraffic, generate_arrivals


def test_periodic_arrivals_exact():
    spec = PeriodicTraffic(t_pit=50.0, horizon=100)
    arr = generate_arrivals(spec, np.random.default_rng(0))
    assert arr.shape == (100,)
    assert np.array_equal(arr, np.arange(100) * 50.0)
    assert spec.mean_interarrival == 50.0


def test_poisson_arrivals_statistics():
    spec = PoissonTraffic(rate=0.03, horizon=100_000)
    arr = generate_arrivals(spec, np.random.default_rng(42))
    assert arr.shape == (100_000,)
    gaps = np.diff(arr)
    assert np.all(gaps > 0.0)
    mean_gap = 1.0 / 0.03
    se = mean_gap / np.sqrt(gaps.size)
    assert abs(gaps.mean() - mean_gap) < 3 * se
    # exponential gaps: variance equals the squared mean
    assert gaps.var() == pytest.approx(mean_gap**2, rel=0.05)
    assert spec.mean_interarrival == pytest.approx(mean_gap, rel=1e-12)


def test_onoff_long_run_rate():
    # p_on = mu / (lam + mu) = 0.4, effective rate 0.008 pkts/ms
    spec = OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.02, horizon=200_000)
    assert spec.mean_interarrival == pytest.approx(125.0, rel=1e-12)
    arr = generate_arrivals(spec, np.random.default_rng(7))
    gaps = np.diff(arr)
    se = gaps.std() / np.sqrt(gaps.size)
    assert abs(gaps.mean() - 125.0) < 3.5 * se


def test_onoff_gaps_never_beat_peak_rate():
    # consecutive emissions need 1/rate ms of accumulated on-time plus
    # whatever off-time interleaves, so gaps are at least the on period
    spec = OnOffTraffic(lam_on_off=0.05, mu_off_on=0.04, rate=0.1, horizon=20_000)
    arr = generate_arrivals(spec, np.random.default_rng(13))
    assert np.all(np.diff(arr) >= 1.0 / 0.1 - 1e-9)


def test_generators_deterministic_per_seed():
    for spec in (
        PoissonTraffic(rate=0.05, horizon=5000),
        OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.02, horizon=5000),
    ):
        a = generate_arrivals(spec, np.random.default_rng(314))
        b = generate_arrivals(spec, np.random.default_rng(314))
        assert np.array_equal(a, b)
        c = generate_arrivals(spec, np.random.default_rng(315))
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("spec", [
    PoissonTraffic(rate=0.05, horizon=2 * 10**6),
    # about 1.7 packets per cycle: a block is some 43k cycles and 72k packets
    OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.05, horizon=2 * 10**6),
])
def test_generators_hold_little_beyond_their_output(spec):
    # the output takes 8 bytes a packet; Poisson sums its gaps in place
    # and the on-off source fills its output a block at a time, whose
    # arrays take about 4.5 MB here, whatever the horizon; summing into a
    # new array, or joining blocks at the end, took 16 and 17 bytes a packet
    tracemalloc.start()
    try:
        arr = generate_arrivals(spec, np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.size == spec.horizon
    assert peak <= 8 * spec.horizon + 6_000_000


@pytest.mark.parametrize("lam, mu, peak_bits, theta", [
    (0.03, 0.02, 4e202, 1e-5),      # theta * peak 4e197: the square passes the float range
    (0.03, 0.02, 4e202, 1e-50),     # 4e152: it does not
    (0.03, 0.02, 1.0, 2e154),       # just past it, with the peak of one packet
    (1e154, 1e154, 4e160, 1e-5),    # lam * mu near the float range as well
])
def test_onoff_envelope_rate_past_the_range_of_the_square(lam, mu, peak_bits, theta):
    # the Perron root in 60-digit decimal arithmetic; the float rate must
    # be finite and agree with it to rounding
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    rate, burst, decay = OnOffTraffic(lam, mu, rate=peak_bits / 400.0).envelope(400.0)(theta)
    tr, lam_d, mu_d, theta_d = Decimal(theta) * Decimal(peak_bits), Decimal(lam), Decimal(mu), Decimal(theta)
    want = (tr - lam_d - mu_d + ((tr - lam_d + mu_d) ** 2 + 4 * lam_d * mu_d).sqrt()) / (2 * theta_d)
    assert math.isfinite(rate) and (burst, decay) == (400.0, theta)
    assert abs(Decimal(rate) - want) <= Decimal("1e-14") * want


def test_spec_validation():
    with pytest.raises(ValueError):
        PeriodicTraffic(t_pit=0.0, horizon=100)
    with pytest.raises(ValueError):
        PeriodicTraffic(t_pit=50.0, horizon=0)
    with pytest.raises(ValueError):
        PoissonTraffic(rate=0.0, horizon=100)
    with pytest.raises(ValueError):
        OnOffTraffic(lam_on_off=0.0, mu_off_on=0.02, rate=0.02, horizon=100)
    with pytest.raises(ValueError):
        OnOffTraffic(lam_on_off=0.03, mu_off_on=-0.1, rate=0.02, horizon=100)
    with pytest.raises(ValueError):
        OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.0, horizon=100)
    for bad in (100.0, 100.5, True):
        for spec in (PeriodicTraffic(t_pit=50.0), PoissonTraffic(rate=0.02),
                     OnOffTraffic(lam_on_off=0.03, mu_off_on=0.02, rate=0.02)):
            with pytest.raises(TypeError, match="horizon"):
                spec.replace(horizon=bad)
    assert PoissonTraffic(rate=0.02, horizon=np.int64(5)).horizon == 5


def test_onoff_horizon_past_the_cycle_limit_is_refused_before_any_draw():
    # about lam_on_off / rate = 5e5 cycles per packet, so 300 packets pass 1e8 cycles
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    spec = OnOffTraffic(lam_on_off=0.5, mu_off_on=0.02, rate=1e-6, horizon=300)
    with pytest.raises(ValueError, match=r"about 1\.5e\+08 on-off cycles for its 300 packets"):
        generate_arrivals(spec, rng)
    assert rng.bit_generator.state == state


TRAFFIC_CLASSES = {"PeriodicTraffic", "PoissonTraffic", "OnOffTraffic", "TrafficSpec"}


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_module_but_traffic_tells_the_traffic_kinds_apart():
    # each kind's laws are methods of its spec, so no other module tests a spec's class
    offenders = []
    for path in sorted(Path(linkdelay.__file__).parent.glob("*.py")):
        if path.name == "traffic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
                    and _names(node.args[1]) & TRAFFIC_CLASSES):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
