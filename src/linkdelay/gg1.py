"""Mean-delay prediction through an equivalent lossless G/G/1 queue.

Waiting time uses the two-moment diffusion approximation
W_q = lam * (var_a + var_t) / (2 * (1 - rho)); total delay adds the mean
service time.  Input moments can come from the fitted link models or
from the exact discrete service-time distribution.
"""

from __future__ import annotations

from . import empirical
from ._record import Frozen, set_field
from .empirical import LinkConfig, MomentCoefficients

TYPE_CHECKING = False  # typing.TYPE_CHECKING for type checkers, without importing typing
if TYPE_CHECKING:
    from .service_time import ServiceDistribution

__all__ = [
    "Gg1Inputs",
    "Overload",
    "Overloaded",
    "traffic_intensity",
    "waiting_time",
    "mean_delay",
    "inputs_from_fitted_models",
    "inputs_from_distribution",
]


class Overloaded(Exception):
    """Raised when the queue is unstable (rho >= 1)."""

    def __init__(self, rho: float):
        self.rho = rho
        super().__init__(f"traffic intensity rho = {rho:.6g} >= 1, queue is unstable")


class Overload(Exception):
    """No exponent in the tail bound's search grid satisfies the stability constraint.

    Raised by snc, which re-exports it; it lives here so that the CLI can
    catch it without importing snc's numpy.
    """


class Gg1Inputs(Frozen):
    """Moment inputs of the equivalent queue."""

    __slots__ = ("lam", "var_a", "mean_t", "var_t")

    def __init__(
        self,
        lam: float,     # arrival rate, packets/ms
        var_a: float,   # equivalent arrival-rate variance
        mean_t: float,  # mean service time, ms
        var_t: float,   # service-time variance, ms^2
    ) -> None:
        if lam <= 0.0:
            raise ValueError(f"lam must be > 0, got {lam}")
        if var_a < 0.0 or var_t < 0.0:
            raise ValueError("variances must be >= 0")
        if mean_t <= 0.0:
            raise ValueError(f"mean_t must be > 0, got {mean_t}")
        set_field(self, "lam", lam)
        set_field(self, "var_a", var_a)
        set_field(self, "mean_t", mean_t)
        set_field(self, "var_t", var_t)


def traffic_intensity(inputs: Gg1Inputs) -> float:
    """Server utilisation rho = lam * E(T)."""
    return inputs.lam * inputs.mean_t


def waiting_time(inputs: Gg1Inputs) -> float:
    """Mean queueing delay W_q in ms; raises Overloaded when rho >= 1."""
    rho = traffic_intensity(inputs)
    if rho >= 1.0:
        raise Overloaded(rho)
    return inputs.lam * (inputs.var_a + inputs.var_t) / (2.0 * (1.0 - rho))


def mean_delay(inputs: Gg1Inputs) -> float:
    """Mean sojourn time: queueing plus service, ms."""
    return waiting_time(inputs) + inputs.mean_t


def inputs_from_fitted_models(cfg: LinkConfig, moment_coeffs: MomentCoefficients | None = None) -> Gg1Inputs:
    """Queue inputs from the measurement-fitted closed forms.

    Loss enters through the fitted PLR model, not the packet error rate.
    """
    plr = empirical.plr_mean(cfg.l_d, cfg.snr, cfg.q_max, moment_coeffs)
    pvar = empirical.plr_var(cfg.l_d, cfg.snr, moment_coeffs)
    arrival = empirical.equivalent_arrival(cfg.t_pit, plr, pvar)
    return Gg1Inputs(
        lam=arrival.lam,
        var_a=arrival.var_a,
        mean_t=empirical.service_time_mean(cfg, moment_coeffs),
        var_t=empirical.service_time_var(cfg, moment_coeffs),
    )


def inputs_from_distribution(dist: ServiceDistribution, t_int: float) -> Gg1Inputs:
    """Queue inputs consistent with the exact service-time law.

    Loss is the residual drop probability of the retry scheme; the
    per-configuration loss rate is deterministic, so the equivalent
    arrival-rate variance is zero.  A drop probability of 1 is refused:
    every packet exhausts its retries, so no traffic reaches the queue.
    """
    arrival = empirical.equivalent_arrival(t_int, dist.drop_probability, 0.0)
    if arrival.lam <= 0.0:
        raise ValueError(
            f"drop probability {dist.drop_probability} leaves no arrivals: every packet "
            "exhausts its retries, so no traffic reaches the equivalent queue")
    return Gg1Inputs(
        lam=arrival.lam,
        var_a=arrival.var_a,
        mean_t=dist.mean(),
        var_t=dist.variance(),
    )
