"""Measurement-fitted link models.

Closed-form expressions for packet error rate, per-packet service-time
moments and packet-loss-rate moments of a retransmitting low-rate wireless
link, plus the transformation that folds losses into an equivalent
lossless arrival process.  All times are milliseconds, payload sizes are
bytes, SNR is dB.  The exp() limits that service_time, snc and traffic
share live here.
"""

from __future__ import annotations

import math
import operator
import sys

from ._record import Frozen, set_field

__all__ = [
    "TimingConstants",
    "PerCoefficients",
    "MomentCoefficients",
    "LinkConfig",
    "EquivalentArrival",
    "packet_error_rate",
    "service_time_mean",
    "service_time_var",
    "plr_mean",
    "plr_var",
    "equivalent_arrival",
]


# the largest x whose exp(x) is a finite float, and the largest exponent an MGF may take
_EXP_MAX = math.log(sys.float_info.max)
_MGF_EXPONENT_LIMIT = 700.0


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _times_exp(coef: float, x: float) -> float:
    """coef * exp(x) for coef >= 0, inf where it overflows, and never an OverflowError.

    Where exp(x) is finite this is the plain product; beyond, it is
    exp(log(coef) + x), and 0 at coef 0.
    """
    if not x > _EXP_MAX:
        return coef * math.exp(x)
    if coef == 0.0:
        return 0.0
    x += math.log(coef)
    return math.exp(x) if x <= _EXP_MAX else math.inf


def _check_integer(name: str, value) -> None:
    """Raise TypeError unless value is an integer (numpy integers pass, bools do not)."""
    if not isinstance(value, bool):
        try:
            operator.index(value)
            return
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


class TimingConstants(Frozen):
    """Fixed per-attempt timing, all in ms except byte/kbps fields."""

    __slots__ = ("t_spi", "t_tr", "t_bo", "t_ack", "t_wait_ack", "frame_overhead", "phy_rate")

    def __init__(
        self,
        t_spi: float = 0.5,           # one-time bus load per packet
        t_tr: float = 0.224,          # radio turnaround
        t_bo: float = 5.28,           # mean CSMA backoff
        t_ack: float = 1.96,          # ACK reception
        t_wait_ack: float = 8.192,    # ACK timeout on a failed attempt
        frame_overhead: int = 17,     # non-payload frame bytes
        phy_rate: float = 250.0,      # radio bit rate, kbit/s == bits/ms
    ) -> None:
        for name, value in (("t_spi", t_spi), ("t_tr", t_tr), ("t_bo", t_bo), ("t_ack", t_ack),
                            ("t_wait_ack", t_wait_ack)):
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if frame_overhead < 0:
            raise ValueError("frame_overhead must be >= 0")
        if phy_rate <= 0.0:
            raise ValueError("phy_rate must be > 0")
        set_field(self, "t_spi", t_spi)
        set_field(self, "t_tr", t_tr)
        set_field(self, "t_bo", t_bo)
        set_field(self, "t_ack", t_ack)
        set_field(self, "t_wait_ack", t_wait_ack)
        set_field(self, "frame_overhead", frame_overhead)
        set_field(self, "phy_rate", phy_rate)


class PerCoefficients(Frozen):
    """Coefficients of the packet-error-rate model alpha*l_d*exp(beta*snr)."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float = 0.0128, beta: float = -0.15) -> None:
        if alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if beta >= 0.0:
            raise ValueError(f"beta must be negative, got {beta}")
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)


class MomentCoefficients(Frozen):
    """Coefficients of the fitted service-time and loss-rate moment models."""

    __slots__ = ("mean_scale", "mean_offset", "mean_exponent", "var_scale", "var_exponent",
                 "plr_mean_scale", "plr_mean_exponent", "plr_var_scale", "plr_var_exponent")

    def __init__(
        self,
        mean_scale: float = 0.06,
        mean_offset: float = 15.0,
        mean_exponent: float = -0.12,
        var_scale: float = 30.0,
        var_exponent: float = -0.15,
        plr_mean_scale: float = 1.0 / 100.0,
        plr_mean_exponent: float = -0.14,
        plr_var_scale: float = 1.0 / 500.0,
        plr_var_exponent: float = -0.1,
    ) -> None:
        for name, value in (("mean_scale", mean_scale), ("var_scale", var_scale),
                            ("plr_mean_scale", plr_mean_scale), ("plr_var_scale", plr_var_scale)):
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name, value in (("mean_exponent", mean_exponent), ("var_exponent", var_exponent),
                            ("plr_mean_exponent", plr_mean_exponent),
                            ("plr_var_exponent", plr_var_exponent)):
            if value >= 0.0:
                raise ValueError(f"{name} must be negative")
        if mean_offset < 0.0:
            raise ValueError("mean_offset must be non-negative")
        set_field(self, "mean_scale", mean_scale)
        set_field(self, "mean_offset", mean_offset)
        set_field(self, "mean_exponent", mean_exponent)
        set_field(self, "var_scale", var_scale)
        set_field(self, "var_exponent", var_exponent)
        set_field(self, "plr_mean_scale", plr_mean_scale)
        set_field(self, "plr_mean_exponent", plr_mean_exponent)
        set_field(self, "plr_var_scale", plr_var_scale)
        set_field(self, "plr_var_exponent", plr_var_exponent)


class LinkConfig(Frozen):
    """Operating point of one link: payload, channel quality and MAC limits."""

    __slots__ = ("l_d", "snr", "n_max_tries", "d_retry", "q_max", "t_pit")

    def __init__(
        self,
        l_d: int = 50,          # payload bytes
        snr: float = 20.0,      # dB
        n_max_tries: int = 3,   # transmission attempts per packet
        d_retry: float = 30.0,  # retry delay, ms
        q_max: int = 60,        # queue capacity in waiting packets
        t_pit: float = 50.0,    # packet inter-arrival time, ms
    ) -> None:
        _check_integer("l_d", l_d)
        _check_integer("n_max_tries", n_max_tries)
        _check_integer("q_max", q_max)
        if not 0 <= l_d <= 114:
            raise ValueError(f"l_d must be in [0, 114] bytes, got {l_d}")
        if n_max_tries < 1:
            raise ValueError(f"n_max_tries must be >= 1, got {n_max_tries}")
        if d_retry < 0.0:
            raise ValueError(f"d_retry must be >= 0, got {d_retry}")
        if q_max < 1:
            raise ValueError(f"q_max must be >= 1, got {q_max}")
        if t_pit <= 0.0:
            raise ValueError(f"t_pit must be > 0, got {t_pit}")
        set_field(self, "l_d", l_d)
        set_field(self, "snr", snr)
        set_field(self, "n_max_tries", n_max_tries)
        set_field(self, "d_retry", d_retry)
        set_field(self, "q_max", q_max)
        set_field(self, "t_pit", t_pit)


class EquivalentArrival(Frozen):
    """Rate and variance of the loss-compensated arrival process."""

    __slots__ = ("lam", "var_a")

    def __init__(
        self,
        lam: float,    # packets/ms
        var_a: float,  # variance of the equivalent arrival rate
    ) -> None:
        set_field(self, "lam", lam)
        set_field(self, "var_a", var_a)


def packet_error_rate(l_d: float, snr: float, coeffs: PerCoefficients | None = None) -> float:
    """Single-attempt packet error probability, clamped to [0, 1]; 0 at l_d 0."""
    c = coeffs if coeffs is not None else PerCoefficients()
    if l_d < 0:
        raise ValueError(f"l_d must be >= 0, got {l_d}")
    return _clamp01(_times_exp(c.alpha * l_d, c.beta * snr))


def service_time_mean(cfg: LinkConfig, coeffs: MomentCoefficients | None = None) -> float:
    """Fitted mean per-packet service time E(T) in ms; inf where it overflows."""
    c = coeffs if coeffs is not None else MomentCoefficients()
    retry = (c.mean_scale / cfg.n_max_tries) * cfg.d_retry * cfg.l_d
    return _times_exp(retry, c.mean_exponent * cfg.snr) + c.mean_offset


def service_time_var(cfg: LinkConfig, coeffs: MomentCoefficients | None = None) -> float:
    """Fitted service-time variance Var(T) in ms^2; inf where it overflows."""
    c = coeffs if coeffs is not None else MomentCoefficients()
    return _times_exp(c.var_scale * cfg.n_max_tries * cfg.d_retry, c.var_exponent * cfg.snr)


def plr_mean(l_d: float, snr: float, q_max: int, coeffs: MomentCoefficients | None = None) -> float:
    """Fitted mean packet loss rate, clamped to [0, 1].

    The 1/q_max term accounts for queue overflow losses on top of
    channel losses.
    """
    c = coeffs if coeffs is not None else MomentCoefficients()
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    return _clamp01(_times_exp(c.plr_mean_scale * l_d, c.plr_mean_exponent * snr) + 1.0 / q_max)


def plr_var(l_d: float, snr: float, coeffs: MomentCoefficients | None = None) -> float:
    """Fitted packet-loss-rate variance; inf where it overflows."""
    c = coeffs if coeffs is not None else MomentCoefficients()
    return _times_exp(c.plr_var_scale * l_d, c.plr_var_exponent * snr)


def equivalent_arrival(t_int: float, plr_mean_value: float, plr_var_value: float) -> EquivalentArrival:
    """Fold packet losses into a thinned, lossless arrival process.

    The delivered fraction (1 - PLR) of the offered rate 1/t_int becomes
    the equivalent arrival rate, so lam * t_int + PLR == 1 holds by
    construction.  A t_int whose square underflows to 0 is refused.
    """
    if t_int <= 0.0:
        raise ValueError(f"t_int must be > 0, got {t_int}")
    t_sq = t_int * t_int
    if t_sq == 0.0:
        raise ValueError(f"an interarrival time of {t_int:.6g} ms is too small: its square underflows to 0")
    if not 0.0 <= plr_mean_value <= 1.0:
        raise ValueError(f"plr mean must be in [0, 1], got {plr_mean_value}")
    if plr_var_value < 0.0:
        raise ValueError(f"plr variance must be >= 0, got {plr_var_value}")
    lam = (1.0 - plr_mean_value) / t_int
    var_a = plr_var_value / t_sq
    return EquivalentArrival(lam=lam, var_a=var_a)
