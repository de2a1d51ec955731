"""Equivalent-queue mean delay: worked values, overload, both input routes."""

import pytest

from linkdelay import (
    Gg1Inputs,
    LinkConfig,
    MomentCoefficients,
    Overloaded,
    TimingConstants,
    inputs_from_distribution,
    inputs_from_fitted_models,
    mean_delay,
    packet_error_rate,
    service_distribution,
    traffic_intensity,
    waiting_time,
)

REL = 1e-9

# Fitted route on the worked configuration (defaults).
RHO_WORKED = 0.33774711372074245
WQ_WORKED = 1.9342682443968746
DELAY_WORKED = 19.65580684307925


def test_fitted_route_worked_values():
    inputs = inputs_from_fitted_models(LinkConfig())
    assert traffic_intensity(inputs) == pytest.approx(RHO_WORKED, rel=REL)
    assert waiting_time(inputs) == pytest.approx(WQ_WORKED, rel=REL)
    assert mean_delay(inputs) == pytest.approx(DELAY_WORKED, rel=REL)


def test_overloaded_raises_with_rho():
    with pytest.raises(Overloaded) as exc:
        waiting_time(inputs_from_fitted_models(LinkConfig(t_pit=5.0)))
    assert exc.value.rho > 1.0

    boundary = Gg1Inputs(lam=0.1, var_a=0.0, mean_t=10.0, var_t=1.0)
    assert traffic_intensity(boundary) == 1.0
    with pytest.raises(Overloaded):
        waiting_time(boundary)


def test_lossless_light_load_is_service_time():
    # no variance on either side: delay collapses to the mean service time
    inputs = Gg1Inputs(lam=0.001, var_a=0.0, mean_t=10.0, var_t=0.0)
    assert waiting_time(inputs) == 0.0
    assert mean_delay(inputs) == 10.0


def test_distribution_route_worked_values():
    pe = packet_error_rate(50, 20.0)
    dist = service_distribution(LinkConfig(), TimingConstants(), pe)
    inputs = inputs_from_distribution(dist, 50.0)
    # independent reconstruction from the distribution's own quantities
    lam = (1.0 - dist.drop_probability) / 50.0
    assert inputs.lam == pytest.approx(lam, rel=1e-12)
    assert inputs.var_a == 0.0
    rho = lam * dist.mean()
    wq = lam * dist.variance() / (2.0 * (1.0 - rho))
    assert traffic_intensity(inputs) == pytest.approx(rho, rel=1e-12)
    assert mean_delay(inputs) == pytest.approx(wq + dist.mean(), rel=1e-12)


def test_distribution_route_refuses_certain_loss():
    # at p_e = 1 every packet fails all its tries and the queue sees no traffic
    dist = service_distribution(LinkConfig(l_d=110, snr=1.0), TimingConstants(), 1.0)
    assert dist.drop_probability == 1.0
    with pytest.raises(ValueError, match="every packet exhausts its retries"):
        inputs_from_distribution(dist, 50.0)


@pytest.mark.parametrize("link, coeffs, message", [
    (LinkConfig(q_max=1), None, "fitted loss rate plr_mean reaches 1"),
    (LinkConfig(l_d=0), MomentCoefficients(mean_offset=0.0), "fitted mean service time is 0 ms"),
    # the queue would take an infinite service-time variance without a word
    (LinkConfig(), MomentCoefficients(var_scale=1e308), "fitted var_service_ms is inf"),
    (LinkConfig(t_pit=1e-200), None, "link t_pit: an interarrival time"),
], ids=["loss_rate_1", "mean_service_0", "var_service_inf", "t_pit_underflow"])
def test_fitted_route_refusals_name_the_quantity(link, coeffs, message):
    with pytest.raises(ValueError, match=message):
        inputs_from_fitted_models(link, coeffs)


def test_inputs_validation():
    with pytest.raises(ValueError):
        Gg1Inputs(lam=0.0, var_a=0.0, mean_t=1.0, var_t=0.0)
    with pytest.raises(ValueError):
        Gg1Inputs(lam=0.1, var_a=-1.0, mean_t=1.0, var_t=0.0)
    with pytest.raises(ValueError):
        Gg1Inputs(lam=0.1, var_a=0.0, mean_t=0.0, var_t=0.0)


def test_waiting_time_grows_with_load():
    delays = []
    for t_pit in (120.0, 90.0, 70.0, 55.0):
        inputs = inputs_from_fitted_models(LinkConfig(t_pit=t_pit))
        delays.append(waiting_time(inputs))
    assert all(b > a for a, b in zip(delays, delays[1:]))
