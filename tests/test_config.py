"""Run-configuration loading: defaults, strict keys, round-trip.

``DEFAULT_THETA_GRID`` holds the 60 points of the default theta grid,
10 to the power of np.logspace's exponents, each correctly rounded.  It
was computed with mpmath at 50 digits by this script (mpmath 1.3):

    import math

    import mpmath

    mpmath.mp.dps = 50

    # np.logspace(-5, 0, 60)'s exponents: k * step + start in double precision, then stop itself
    start, stop, points = math.log10(1e-5), math.log10(1.0), 60
    step = (stop - start) / (points - 1)
    exponents = [k * step + start for k in range(points - 1)] + [stop]
    for y in exponents:
        print(f"    \"{float(mpmath.power(10, mpmath.mpf(y))).hex()}\",")
"""

import json

import pytest

from linkdelay import ConfigError, OnOffTraffic, PeriodicTraffic, PoissonTraffic, load_config
from linkdelay.config import ThetaGridSpec, config_from_dict, default_config, dump_config

DEFAULT_THETA_GRID = [
    "0x1.4f8b588e368f1p-17",
    "0x1.97d8716ca709cp-17",
    "0x1.efb9c6272901cp-17",
    "0x1.2d4559aad28c2p-16",
    "0x1.6e2fe094eee57p-16",
    "0x1.bd1744d867c71p-16",
    "0x1.0e7f8dff318aep-15",
    "0x1.48c89e9d593a4p-15",
    "0x1.8fa0ca2ea4c50p-15",
    "0x1.e5bcd66eec160p-15",
    "0x1.273367b386e90p-14",
    "0x1.66cf18cfca026p-14",
    "0x1.b41f814aa577cp-14",
    "0x1.090c556f958dfp-13",
    "0x1.4228c3b3b96d6p-13",
    "0x1.87938583531b2p-13",
    "0x1.dbf36b4e424e0p-13",
    "0x1.2140c4eeac738p-12",
    "0x1.5f945f4ea42f2p-12",
    "0x1.ab55ff35f8d91p-12",
    "0x1.03b53960adc1fp-11",
    "0x1.3bab13f407484p-11",
    "0x1.7fafc8cbcdecbp-11",
    "0x1.d25c7b0adb06bp-11",
    "0x1.1b6ccfde2530ep-10",
    "0x1.587eefc7360e3p-10",
    "0x1.a2b9d004766b6p-10",
    "0x1.fcf351a650bdcp-10",
    "0x1.354edf20af16dp-9",
    "0x1.77f4bdd0d4733p-9",
    "0x1.c8f70145030f3p-9",
    "0x1.15b6ea44cc675p-8",
    "0x1.518e09e3ad823p-8",
    "0x1.9a4a09eed08bdp-8",
    "0x1.f2b22b672fa1fp-8",
    "0x1.2f1378892816ap-7",
    "0x1.706192ac10eebp-7",
    "0x1.bfc1fedc07143p-7",
    "0x1.101e7915ae2a0p-6",
    "0x1.4ac0f12e47738p-6",
    "0x1.9205c7e38bf8dp-6",
    "0x1.e8a5e996c23f4p-6",
    "0x1.28f836f7a3a7ap-5",
    "0x1.68f579b1d5836p-5",
    "0x1.b6bc79d324797p-5",
    "0x1.0aa2e46395775p-4",
    "0x1.4416ecfd52cfap-4",
    "0x1.89ec296eb43acp-4",
    "0x1.decd7b63f019ep-4",
    "0x1.22fc749f1af5ep-3",
    "0x1.61afa95b4becbp-3",
    "0x1.ade57d3705c57p-3",
    "0x1.05439750ef290p-2",
    "0x1.3d8f485f9aa20p-2",
    "0x1.81fc52a20d5eap-2",
    "0x1.d527d57ccebb8p-2",
    "0x1.1d1f8f09b932ep-1",
    "0x1.5a8f5c3115b65p-1",
    "0x1.a53c1903c7d08p-1",
    "0x1.0000000000000p+0",
]


def test_defaults():
    cfg = default_config()
    assert cfg.link.l_d == 50 and cfg.link.snr == 20.0
    assert isinstance(cfg.traffic, PeriodicTraffic)
    assert cfg.traffic.t_pit == 50.0
    assert cfg.delay_grid[0] == 15.0 and cfg.delay_grid[-1] == 90.0
    assert cfg.mean_delay_tolerance == 0.25
    assert cfg.output_format == "csv"


def test_partial_override_keeps_other_defaults():
    cfg = config_from_dict({"link": {"snr": 10.0}, "seed": 7})
    assert cfg.link.snr == 10.0
    assert cfg.link.l_d == 50
    assert cfg.seed == 7
    assert cfg.timing.t_bo == 5.28


def test_unknown_keys_rejected_with_key_name():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="snrr"):
        config_from_dict({"link": {"snrr": 10.0}})
    with pytest.raises(ConfigError, match="colour"):
        config_from_dict({"timing": {"colour": 3}})
    with pytest.raises(ConfigError, match="rate"):
        config_from_dict({"traffic": {"kind": "periodic", "rate": 1.0}})
    with pytest.raises(ConfigError, match="extra"):
        config_from_dict({"output": {"extra": 1}})


def test_traffic_kinds():
    p = config_from_dict({"traffic": {"kind": "poisson", "rate": 0.03, "horizon": 500}})
    assert isinstance(p.traffic, PoissonTraffic) and p.traffic.rate == 0.03
    o = config_from_dict(
        {"traffic": {"kind": "onoff", "lam_on_off": 0.03, "mu_off_on": 0.02, "rate": 0.02}}
    )
    assert isinstance(o.traffic, OnOffTraffic)
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict({"traffic": {"t_pit": 50.0}})
    with pytest.raises(ConfigError, match="fractal"):
        config_from_dict({"traffic": {"kind": "fractal"}})


def test_invalid_values_become_config_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"link": {"l_d": 300}})
    with pytest.raises(ConfigError):
        config_from_dict({"seed": -1})
    with pytest.raises(ConfigError):
        config_from_dict({"seed": 1.5})
    with pytest.raises(ConfigError):
        config_from_dict({"seed": True})
    with pytest.raises(ConfigError):
        config_from_dict({"delay_grid": [10.0, 5.0]})
    with pytest.raises(ConfigError):
        config_from_dict({"delay_grid": []})
    with pytest.raises(ConfigError):
        config_from_dict({"theta_grid": {"min": 0.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"mean_delay_tolerance": -0.1})
    with pytest.raises(ConfigError):
        config_from_dict({"output": {"format": "xml"}})


def test_dump_round_trip_identity():
    cfg = config_from_dict(
        {
            "link": {"l_d": 110, "snr": 15.0, "n_max_tries": 5},
            "traffic": {"kind": "onoff", "lam_on_off": 0.03, "mu_off_on": 0.02, "rate": 0.02},
            "seed": 31337,
            "delay_grid": [10.0, 20.0, 40.0],
            "theta_grid": {"min": 1e-4, "max": 0.5, "points": 25},
            "mean_delay_tolerance": 0.1,
            "output": {"path": "out.csv", "format": "csv"},
        }
    )
    assert config_from_dict(dump_config(cfg)) == cfg
    # and via actual JSON text
    assert config_from_dict(json.loads(json.dumps(dump_config(cfg)))) == cfg


def test_load_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"link": {"snr": 12.0}}))
    assert load_config(good).link.snr == 12.0


def test_theta_grid_values():
    cfg = config_from_dict({"theta_grid": {"min": 1e-3, "max": 1.0, "points": 4}})
    vals = cfg.theta_grid.values()
    assert vals[0] == pytest.approx(1e-3) and vals[-1] == pytest.approx(1.0)
    assert len(vals) == 4


def test_default_theta_grid_is_correctly_rounded():
    # np.logspace's SIMD power put the first point at 9.999999999999999e-06, below min
    grid = ThetaGridSpec().values()
    assert type(grid) is tuple and all(type(t) is float for t in grid)
    assert [t.hex() for t in grid] == DEFAULT_THETA_GRID
    assert grid[0] == 1e-5 and grid[-1] == 1.0
