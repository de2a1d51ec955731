"""The package root: its exported names, bound eagerly or on first access."""

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
    "inputs_from_fitted_models", "load_config", "mean_delay", "onoff_arrival_curve",
    "optimize_delay_ccdf", "packet_error_rate", "periodic_arrival_curve", "plr_mean",
    "plr_var", "poisson_arrival_curve", "run_simulation", "service_components",
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
