"""Run-configuration loading: defaults, strict keys, round-trip."""

import json

import pytest

from linkdelay import ConfigError, OnOffTraffic, PeriodicTraffic, PoissonTraffic, load_config
from linkdelay.config import config_from_dict, default_config, dump_config


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
