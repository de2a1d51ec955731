"""The package root: its exported names, bound eagerly or on first access, and its records."""

import copy
import inspect
import pickle

import numpy as np
import pytest

import linkdelay
from linkdelay import config, empirical, gg1, service_time, simulator, snc, traffic

MODULES = (config, empirical, gg1, service_time, simulator, snc, traffic)

# the root's __all__ before the numerics loaded lazily: the union of the seven modules' __all__
ROOT_ALL = [
    "ArrivalCurve", "ConfigError", "DelayBound", "DelayCcdf", "DominanceViolation",
    "EmpiricalCcdf", "EquivalentArrival", "Gg1Inputs", "LinkConfig", "MomentCoefficients",
    "OnOffTraffic", "Overload", "Overloaded", "PerCoefficients", "PeriodicTraffic",
    "PoissonTraffic", "RunConfig", "ServiceComponents", "ServiceCurve", "ServiceDistribution",
    "SimResult", "SimTrace", "ThetaGridSpec", "TimingConstants", "TrafficSpec",
    "arrival_curve_for", "attempt_pmf", "convolve_exponential_bounds", "default_config",
    "delivered_duration", "dominance_report", "dropped_duration", "dump_config",
    "empirical_ccdf", "equivalent_arrival", "generate_arrivals", "inputs_from_distribution",
    "inputs_from_fitted_models", "load_config", "mean_delay",
    "optimize_delay_ccdf", "packet_error_rate", "plr_mean",
    "plr_var", "run_simulation", "service_components",
    "service_curve", "service_distribution", "service_time_mean", "service_time_var",
    "simulate", "traffic_intensity", "waiting_time",
]


def test_root_all_is_the_union_of_the_modules():
    assert linkdelay.__all__ == ROOT_ALL
    assert linkdelay.__all__ == sorted({name for module in MODULES for name in module.__all__})


def test_star_import_binds_each_name_to_its_module_object():
    namespace: dict = {}
    exec("from linkdelay import *", namespace)
    assert set(ROOT_ALL) <= set(namespace)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(linkdelay, name) is getattr(module, name), (module.__name__, name)
            assert namespace[name] is getattr(module, name), (module.__name__, name)


def test_moved_names_are_the_same_objects():
    assert service_time.TimingConstants is empirical.TimingConstants
    assert snc.Overload is linkdelay.Overload is gg1.Overload


def test_submodules_and_unknown_names():
    assert linkdelay.snc is snc and linkdelay.cli.main is not None
    assert set(ROOT_ALL) <= set(dir(linkdelay))
    assert not hasattr(linkdelay, "no_such_name")
    assert not hasattr(linkdelay, "__no_such_dunder__")


# each public record's constructor parameters, in order, so that callers' positional and
# keyword arguments keep their meaning: a name, or a (name, default) pair
SIGNATURES = {
    "ArrivalCurve": ["rate", "burst", "decay"],
    "DelayBound": ["delay", "prob", "theta"],
    "DelayCcdf": ["points"],
    "DominanceViolation": ["delay", "empirical_upper", "bound_prob"],
    "EmpiricalCcdf": ["delays", "fractions", "upper", "n_samples", "confidence"],
    "EquivalentArrival": ["lam", "var_a"],
    "Gg1Inputs": ["lam", "var_a", "mean_t", "var_t"],
    "LinkConfig": [("l_d", 50), ("snr", 20.0), ("n_max_tries", 3), ("d_retry", 30.0), ("q_max", 60),
                   ("t_pit", 50.0)],
    "MomentCoefficients": [("mean_scale", 0.06), ("mean_offset", 15.0), ("mean_exponent", -0.12),
                           ("var_scale", 30.0), ("var_exponent", -0.15), ("plr_mean_scale", 0.01),
                           ("plr_mean_exponent", -0.14), ("plr_var_scale", 0.002),
                           ("plr_var_exponent", -0.1)],
    "OnOffTraffic": ["lam_on_off", "mu_off_on", "rate", ("horizon", 20000)],
    "PerCoefficients": [("alpha", 0.0128), ("beta", -0.15)],
    "PeriodicTraffic": ["t_pit", ("horizon", 20000)],
    "PoissonTraffic": ["rate", ("horizon", 20000)],
    "RunConfig": ["link", "timing", "per_coeffs", "moment_coeffs", "traffic", "seed", "delay_grid",
                  "theta_grid", "mean_delay_tolerance", "output_path", "output_format"],
    "ServiceComponents": ["t_mac", "t_frame", "t_succ", "t_fail", "t_retry"],
    "ServiceCurve": ["rate", "theta"],
    "ServiceDistribution": ["durations", "probs", "p_e", "n_max_tries"],
    "SimResult": ["delivered_delays", "n_arrivals", "n_delivered", "n_queue_drops", "n_retry_drops",
                  ("trace", None)],
    "SimTrace": ["arrival", "start", "attempts", "outcome", "delay"],
    "ThetaGridSpec": [("min", 1e-05), ("max", 1.0), ("points", 60)],
    "TimingConstants": [("t_spi", 0.5), ("t_tr", 0.224), ("t_bo", 5.28), ("t_ack", 1.96),
                        ("t_wait_ack", 8.192), ("frame_overhead", 17), ("phy_rate", 250.0)],
}

# records whose fields may be assigned, as before; they compare by value and do not hash
MUTABLE = {"EmpiricalCcdf", "SimResult", "SimTrace"}


def _example(name: str):
    """One valid instance of the named record."""
    one = np.array([1.0])
    bound = snc.DelayBound(delay=20.0, prob=0.1, theta=0.01)
    return {
        "ArrivalCurve": lambda: snc.ArrivalCurve(rate=8.0, burst=400.0, decay=None),
        "DelayBound": lambda: bound,
        "DelayCcdf": lambda: snc.DelayCcdf(points=(bound,)),
        "DominanceViolation": lambda: simulator.DominanceViolation(20.0, 0.2, 0.1),
        "EmpiricalCcdf": lambda: simulator.EmpiricalCcdf(one, one / 2, one, 10, 0.99),
        "EquivalentArrival": lambda: empirical.EquivalentArrival(lam=0.02, var_a=0.0),
        "Gg1Inputs": lambda: gg1.Gg1Inputs(lam=0.02, var_a=0.0, mean_t=20.0, var_t=5.0),
        "OnOffTraffic": lambda: traffic.OnOffTraffic(lam_on_off=0.1, mu_off_on=0.1, rate=0.08),
        "PeriodicTraffic": lambda: traffic.PeriodicTraffic(t_pit=50.0),
        "PoissonTraffic": lambda: traffic.PoissonTraffic(rate=0.03),
        "RunConfig": config.default_config,
        "ServiceComponents": lambda: service_time.ServiceComponents(1.0, 2.0, 3.0, 4.0, 5.0),
        "ServiceCurve": lambda: snc.ServiceCurve(rate=100.0, theta=0.01),
        "ServiceDistribution": lambda: service_time.service_distribution(
            empirical.LinkConfig(), empirical.TimingConstants(), 0.2),
        "SimResult": lambda: simulator.SimResult(one, 1, 1, 0, 0),
        "SimTrace": lambda: simulator.SimTrace(one, one, np.array([1]), ["delivered"], one),
    }.get(name, getattr(linkdelay, name))()


def _field_names(name: str) -> list[str]:
    return [p if isinstance(p, str) else p[0] for p in SIGNATURES[name]]


def test_every_public_record_is_pinned():
    records = {name for name in ROOT_ALL
               if isinstance(getattr(linkdelay, name), type) and hasattr(getattr(linkdelay, name), "replace")}
    assert records == set(SIGNATURES)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_record_signature_is_unchanged(name):
    cls = getattr(linkdelay, name)
    params = inspect.signature(cls).parameters.values()
    assert [p.name if p.default is inspect.Parameter.empty else (p.name, p.default)
            for p in params] == SIGNATURES[name]
    # the fields are stored, repr'd, compared and pickled in __slots__ order
    assert [slot for slot in cls.__slots__ if slot != "__dict__"] == _field_names(name)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_record_behaviour(name):
    record = _example(name)
    fields = _field_names(name)
    text = repr(record)
    assert text.startswith(f"{name}(") and all(f"{field}=" in text for field in fields)
    if name in MUTABLE:
        setattr(record, fields[0], getattr(record, fields[0]))
        with pytest.raises(TypeError):
            hash(record)
    else:
        for field in (*fields, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, field, 1)
            with pytest.raises(AttributeError):
                delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    twin = record.replace()
    assert type(twin) is type(record) and twin is not record
    if name == "ServiceDistribution":  # compared and hashed by identity, as before
        assert twin != record and record == record and hash(record) == object.__hash__(record)
    else:
        assert all(getattr(twin, field) is getattr(record, field) for field in fields)


@pytest.mark.parametrize("make", [
    config.default_config,
    empirical.LinkConfig,
    lambda: traffic.OnOffTraffic(lam_on_off=0.1, mu_off_on=0.1, rate=0.08),
])
def test_equal_records_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)


def test_replace_checks_again():
    assert empirical.LinkConfig().replace(l_d=100).l_d == 100
    assert config.default_config().replace(seed=1) != config.default_config()
    with pytest.raises(ValueError):
        empirical.LinkConfig().replace(l_d=300)
    with pytest.raises(TypeError):
        empirical.LinkConfig().replace(no_such_field=1)
