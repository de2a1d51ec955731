"""Command-line behavior: worked outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkdelay import LinkConfig, PerCoefficients, TimingConstants, packet_error_rate
from linkdelay.cli import main
from linkdelay.service_time import service_distribution

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"

WORKED_MODELS_ROW = (
    "0.0318637237554,17.7215385987,134.425084593,0.0470716979793,"
    "0.0135335283237,0.0190585660404,5.41341132946e-06"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_models_default_csv(capsys):
    code, out, _ = run(capsys, "models")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "per,mean_service_ms,var_service_ms,plr_mean,plr_var,lambda_pkts_per_ms,var_a"
    assert lines[1] == WORKED_MODELS_ROW


def test_models_zero_payload(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"link": {"l_d": 0}}))
    code, out, _ = run(capsys, "models", "--config", str(cfg))
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    per, plr_m, plr_v = float(row[0]), float(row[3]), float(row[4])
    assert per == 0.0 and plr_v == 0.0
    assert plr_m == pytest.approx(1.0 / 60.0, rel=1e-9)  # queue-overflow floor remains


def test_mean_delay_worked(capsys):
    code, out, _ = run(capsys, "mean-delay")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[-1] == "19.6558068431"
    assert float(row[0]) == pytest.approx(0.33774711372074245, rel=1e-9)


def test_mean_delay_overloaded_exit_code(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"link": {"t_pit": 5.0}}))
    code, _, err = run(capsys, "mean-delay", "--config", str(cfg))
    assert code == 3
    assert "rho" in err


def test_config_error_exit_code_names_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"link": {"snrr": 10}}))
    code, _, err = run(capsys, "models", "--config", str(cfg))
    assert code == 2
    assert "snrr" in err
    code, _, err = run(capsys, "models", "--config", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("raw, key", [
    ({"link": {"l_d": 50.5}}, "l_d"),
    ({"link": {"n_max_tries": 2.5}}, "n_max_tries"),
    ({"link": {"q_max": 2.5}}, "q_max"),
    ({"link": {"q_max": True}}, "q_max"),
    ({"traffic": {"kind": "periodic", "t_pit": 50.0, "horizon": 100.5}}, "horizon"),
    ({"traffic": {"kind": "poisson", "rate": 0.02, "horizon": 100.5}}, "horizon"),
    ({"traffic": {"kind": "onoff", "lam_on_off": 0.03, "mu_off_on": 0.02, "rate": 0.02,
                  "horizon": 100.5}}, "horizon"),
    ({"theta_grid": {"points": 60.5}}, "points"),
])
def test_non_integer_count_is_a_config_error(tmp_path, capsys, raw, key):
    # a fractional on-off horizon used to hang the generator; others raised TypeError
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("raw, key", [
    ({"mean_delay_tolerance": True}, "mean_delay_tolerance"),
    ({"mean_delay_tolerance": False}, "mean_delay_tolerance"),
    ({"delay_grid": [True, 20, 30]}, "delay_grid"),
    ({"delay_grid": [15, 20, False]}, "delay_grid"),
    ({"delay_grid": ["15", 20]}, "delay_grid"),
    ({"delay_grid": [float("nan"), 20]}, "delay_grid"),
    ({"mean_delay_tolerance": float("nan")}, "mean_delay_tolerance"),
    ({"link": {"snr": True}}, "snr"),
    ({"link": {"d_retry": False}}, "d_retry"),
    ({"link": {"snr": float("nan")}}, "snr"),
    ({"link": {"snr": float("-inf")}}, "snr"),
    ({"link": {"t_pit": "50"}}, "t_pit"),
    ({"timing": {"t_bo": float("inf")}}, "t_bo"),
    ({"per_coeffs": {"alpha": None}}, "alpha"),
    ({"theta_grid": {"max": float("nan")}}, "max"),
    ({"traffic": {"kind": "poisson", "rate": float("nan")}}, "rate"),
    ({"traffic": {"kind": "onoff", "lam_on_off": 0.03, "mu_off_on": True, "rate": 0.02}}, "mu_off_on"),
    ({"link": 5}, "link"),
    ({"traffic": ["poisson"]}, "traffic"),
    # a kind that is not a string was looked up as a dict key, an output path that
    # is not one was opened: ["a"] raised TypeError, and 1 or true wrote to and closed fd 1
    ({"traffic": {"kind": ["poisson"]}}, "kind"),
    ({"traffic": {"kind": {"poisson": 1}}}, "kind"),
    ({"traffic": {"kind": 1}}, "kind"),
    ({"output": {"path": ["a"]}}, "path"),
    ({"output": {"path": 1}}, "path"),
    ({"output": {"path": True}}, "path"),
    ({"output": {"path": {"a": 1}}}, "path"),
    ({"delay_grid": [15, 20, float("inf")]}, "delay_grid"),
    ({"delay_grid": [float("-inf"), 15, 20]}, "delay_grid"),
])
def test_non_number_is_a_config_error(tmp_path, capsys, raw, key):
    # booleans used to load as 1.0/0.0, NaN passed the range checks, a
    # section that was not an object raised TypeError and an infinite delay
    # got a bound row; every subcommand loads its config before it does
    # anything else
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("link", [{"q_max": 1}, {"l_d": 114, "snr": 0.0}])
def test_fitted_loss_rate_of_one(tmp_path, capsys, link):
    # plr_mean clamps to 1, so the fitted route's arrival rate is 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"link": link, "traffic": {"kind": "periodic", "t_pit": 50.0,
                                                         "horizon": 2000}}))
    code, out, err = run(capsys, "mean-delay", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "fitted loss rate" in err
    code, out, err = run(capsys, "models", "--config", str(cfg))
    assert code == 0 and out.splitlines()[1].split(",")[3] == "1"
    code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert "Traceback" not in err
    if link == {"q_max": 1}:
        # the exact-law checks still decide the exit code
        assert code == 0
        assert "# fitted_mean_delay_ms=\n" in out
    else:
        assert code == 4 and "no packets delivered" in err


@pytest.mark.parametrize("link", [{"l_d": 0}, {"d_retry": 0.0}])
def test_fitted_mean_service_time_of_zero(tmp_path, capsys, link):
    # the fitted E(T) is a retry term, 0 here, plus mean_offset; Gg1Inputs rejects 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"link": link, "moment_coeffs": {"mean_offset": 0.0}}))
    code, out, err = run(capsys, "mean-delay", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "fitted mean service time" in err
    code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert "Traceback" not in err
    if link == {"l_d": 0}:
        assert code == 2 and "l_d" in err
    else:
        # the exact-law checks still decide the exit code
        assert code == 0
        assert "# fitted_mean_delay_ms=\n" in out


def test_whole_numbers_still_load_as_floats(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mean_delay_tolerance": 1, "delay_grid": [10, 20.5, 30]}))
    code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--dump-config")
    assert code == 0
    doc = json.loads(out)
    assert doc["mean_delay_tolerance"] == 1.0 and isinstance(doc["mean_delay_tolerance"], float)
    assert doc["delay_grid"] == [10.0, 20.5, 30.0]
    assert all(isinstance(d, float) for d in doc["delay_grid"])


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_delay_bound_non_increasing(capsys):
    code, out, _ = run(capsys, "delay-bound")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    probs = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(probs, probs[1:]))
    thetas = [float(r[2]) for r in rows]
    assert all(t > 0 for t in thetas)


# the default link's mean service time, 11.6 ms: at t_pit 10 the queue's rho is 1.16;
# on-off traffic at rho 0.99 with On and Off periods of 8 mean service times each
# leaves the queue stable, but no exponent of the theta grid gives a stable bound
DEFAULT_MEAN_T = 11.615375918760776
ONOFF_RHO_099 = {"kind": "onoff", "lam_on_off": 1.0 / (8.0 * DEFAULT_MEAN_T),
                 "mu_off_on": 1.0 / (8.0 * DEFAULT_MEAN_T), "rate": 2.0 * 0.99 / DEFAULT_MEAN_T}


@pytest.mark.parametrize("traffic, message", [
    ({"kind": "periodic", "t_pit": 10.0}, "overloaded: traffic intensity rho=1.16"),
    (ONOFF_RHO_099, "overload: no stable exponent in the theta grid"),
], ids=["periodic-rho-1.16", "onoff-rho-0.99"])
def test_validate_exits_on_overload_before_simulating(tmp_path, capsys, monkeypatch, traffic, message):
    from linkdelay import simulator

    def refuse(*args):
        raise AssertionError("validate simulated a config its analysis refuses")

    monkeypatch.setattr(simulator, "run_simulation", refuse)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"traffic": {**traffic, "horizon": 3_000_000}}))
    code, out, err = run(capsys, "validate", "--config", str(cfg), "--seed", "1")
    assert (code, out) == (3, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_delay_bound_overload_exit_code(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"traffic": {"kind": "periodic", "t_pit": 9.0, "horizon": 100}}))
    code, _, err = run(capsys, "delay-bound", "--config", str(cfg))
    assert code == 3
    assert "overload" in err.lower()


@pytest.mark.parametrize("command", ["delay-bound", "validate"])
@pytest.mark.parametrize("grid, exit_code", [
    ({"min": 1e-18, "max": 1.0, "points": 60}, 0),   # the smallest exponents leave the MGF at 1
    ({"min": 1e-30, "max": 1e-18, "points": 5}, 3),  # every exponent does
])
def test_theta_grid_below_the_mgf_resolution(tmp_path, capsys, command, grid, exit_code):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theta_grid": grid}))
    code, out, err = run(capsys, command, "--config", str(cfg), "--seed", "1")
    assert code == exit_code
    if exit_code == 3:
        assert out == "" and err.startswith("overload: ")
        assert "service-time MGF rounds to 1" in err and "envelope" not in err
        return
    rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
    probs = [float(row[-2 if command == "delay-bound" else 3]) for row in rows]
    assert len(rows) == 16 and all(0.0 < p <= 1.0 for p in probs) and min(probs) < 0.01


@pytest.mark.parametrize("command", ["delay-bound", "validate"])
def test_overload_names_each_cause_of_a_mixed_grid(tmp_path, capsys, command):
    # the small exponent leaves the MGF at 1, the large one is past the
    # overflow guard: neither reaches the envelope comparison
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theta_grid": {"min": 1e-30, "max": 1e3, "points": 2}}))
    code, out, err = run(capsys, command, "--config", str(cfg), "--seed", "1")
    assert code == 3
    assert out == "" and err.startswith("overload: ")
    assert "at exponent 1e-30, the service-time MGF rounds to 1" in err
    assert "at exponent 1e+03, the service-time MGF would leave exp()'s range" in err
    assert "envelope" not in err


@pytest.mark.parametrize("rate", [1e15, 1e17, 1e19, 1e200])
def test_huge_onoff_peak_rate_exits_cleanly(tmp_path, capsys, rate):
    # from a peak rate near 1e17 the on-off emission counts passed int64,
    # and at 1e200 the square in the on-off envelope passed the float range
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"traffic": {"kind": "onoff", "lam_on_off": 0.03, "mu_off_on": 0.02,
                                           "rate": rate, "horizon": 2000}}))
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--seed", "1")
    assert code == 0 and err == ""
    counts = dict(line[2:].split("=") for line in out.splitlines() if line.startswith("# n_"))
    assert int(counts["n_arrivals"]) == 2000 and int(counts["n_queue_drops"]) > 1900
    code, out, err = run(capsys, "delay-bound", "--config", str(cfg))
    assert (code, out) == (3, "")
    assert err == ("overload: no stable exponent in the theta grid; "
                   "arrival envelope exceeds the service curve everywhere\n")
    code, out, err = run(capsys, "validate", "--config", str(cfg), "--seed", "1")
    # at 1e200 the mean interarrival time is too small for the G/G/1 inputs
    assert (code, out) == ((2, "") if rate > 1e100 else (3, ""))
    assert err.startswith("config error: " if rate > 1e100 else "overloaded: ") and err.count("\n") == 1


def test_subnormal_onoff_period_simulates_without_a_warning(tmp_path, capsys):
    # at a peak rate of 1e308 the period 1 / rate is subnormal, and the On
    # time over it passes the float range; pytest makes numpy's overflow
    # warning an error, so the division must not raise one
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"traffic": {"kind": "onoff", "lam_on_off": 0.03, "mu_off_on": 0.02,
                                           "rate": 1e308, "horizon": 200}}))
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--seed", "1")
    assert code == 0 and err == ""
    counts = dict(line[2:].split("=") for line in out.splitlines() if line.startswith("# n_"))
    assert counts == {"n_arrivals": "200", "n_delivered": "61", "n_queue_drops": "139",
                      "n_retry_drops": "0"}


OUT_OF_RANGE_LINKS = {
    # the squares of the service times pass the float range
    "square": {"link": {"d_retry": 1e154}},
    # so do the drop atom and the last delivery atom themselves
    "duration": {"link": {"d_retry": 1e308, "n_max_tries": 8}},
    # near the top of the range, where the simulator's sums would pass it
    "sum": {"link": {"snr": -4400, "l_d": 57, "d_retry": 3e306},
            "traffic": {"kind": "periodic", "t_pit": 50.0, "horizon": 50}},
}


@pytest.mark.parametrize("command", ["delay-bound", "simulate", "validate"])
@pytest.mark.parametrize("case", list(OUT_OF_RANGE_LINKS))
def test_service_times_out_of_the_float_range_are_a_config_error(tmp_path, capsys, case, command):
    # every subcommand that builds the service law refuses it in one line;
    # pytest makes a RuntimeWarning an error, so none may be raised either
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(OUT_OF_RANGE_LINKS[case]))
    code, out, err = run(capsys, command, "--config", str(cfg), "--seed", "1")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"config error: link l_d, d_retry and n_max_tries give service times up to "
                        r"\S+ ms, whose square leaves the float range\n", err)


OUT_OF_RANGE_ARRIVALS = {
    # the arrivals themselves pass the float range as they are drawn
    "periodic": {"traffic": {"kind": "periodic", "t_pit": 1e306, "horizon": 200}},
    "poisson": {"traffic": {"kind": "poisson", "rate": 1e-307, "horizon": 100}},
    # they stay in it, but twice the last does not: the simulator's rounding margins would overflow
    "margin": {"traffic": {"kind": "periodic", "t_pit": 1e306, "horizon": 170}},
}


@pytest.mark.parametrize("command", ["models", "mean-delay", "delay-bound", "simulate", "validate"])
@pytest.mark.parametrize("case", list(OUT_OF_RANGE_ARRIVALS))
def test_arrivals_out_of_the_float_range_are_a_config_error(tmp_path, capsys, case, command):
    # only the subcommands that draw arrivals refuse them, in one line;
    # pytest makes a RuntimeWarning an error, so none may be raised either
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(OUT_OF_RANGE_ARRIVALS[case]))
    code, out, err = run(capsys, command, "--config", str(cfg), "--seed", "1")
    if command in ("simulate", "validate"):
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and err.count("\n") == 1
    else:
        assert (code, err) == (0, "")


def test_delay_bound_lossless_matches_closed_form(tmp_path, capsys):
    # snr=5000 underflows the error-rate expression to exactly zero, so the
    # service law is one atom at t1 = 10.108 ms and the optimized bound is
    # exp(-theta_max (d - t1)); it falls in theta up to the MGF's cap
    # theta_max = 700 / max_duration, past the default grid's 1, where
    # max_duration = t1: the retry atoms, of probability 0, do not count
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"link": {"snr": 5000.0}}))
    code, out, _ = run(capsys, "delay-bound", "--config", str(cfg))
    assert code == 0
    t1 = 10.108
    theta_max = 700.0 / t1
    for line in out.strip().splitlines()[1:]:
        d, prob, theta = (float(v) for v in line.split(","))
        assert prob == pytest.approx(math.exp(-theta_max * (d - t1)), rel=0.01)
        assert theta == pytest.approx(theta_max, rel=1e-11)


def test_delay_bound_poisson_large_payload(tmp_path, capsys):
    # 800-bit packets put theta * packet_bits past exp()'s range at the top
    # of the default theta grid; those exponents are infeasible, not an error
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"link": {"l_d": 100},
                               "traffic": {"kind": "poisson", "rate": 0.01, "horizon": 100}}))
    code, out, err = run(capsys, "delay-bound", "--config", str(cfg))
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    probs = [float(r[1]) for r in rows]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert all(b <= a for a, b in zip(probs, probs[1:]))


def test_simulate_deterministic_and_seed_override(tmp_path):
    out1, out2, out3 = (tmp_path / f"o{i}.csv" for i in range(3))
    assert main(["simulate", "--out", str(out1)]) == 0
    assert main(["simulate", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["simulate", "--out", str(out3), "--seed", "777"]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_simulate_summary_and_json(capsys):
    code, out, _ = run(capsys, "simulate", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    s = doc["summary"]
    assert s["n_arrivals"] == 20000
    assert s["n_delivered"] + s["n_queue_drops"] + s["n_retry_drops"] == s["n_arrivals"]
    assert {"delay_ms", "exceed_fraction", "upper_conf"} == set(doc["rows"][0])


def test_simulate_trace(tmp_path):
    trace = tmp_path / "t.csv"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"traffic": {"kind": "periodic", "t_pit": 50.0, "horizon": 300}}))
    assert main(["simulate", "--config", str(cfg), "--trace", str(trace),
                 "--out", str(tmp_path / "s.csv")]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "arrival_ms,start_ms,attempts,outcome,delay_ms"
    assert len(lines) == 301
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "delivered"


def test_validate_default_passes(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "# passed=true" in out
    assert "# n_violations=0" in out


def test_validate_zero_tolerance_fails(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mean_delay_tolerance": 0.0}))
    code, out, _ = run(capsys, "validate", "--config", str(cfg))
    assert code == 4
    assert "# mean_ok=false" in out
    assert "# passed=false" in out


def test_dump_config_round_trip(tmp_path, capsys):
    from linkdelay.config import config_from_dict, default_config

    code, out, _ = run(capsys, "simulate", "--dump-config")
    assert code == 0
    assert config_from_dict(json.loads(out)) == default_config()
    # overrides are reflected in the dump
    code, out, _ = run(capsys, "simulate", "--dump-config", "--seed", "42")
    assert json.loads(out)["seed"] == 42


def test_output_file_and_format_override(tmp_path):
    out = tmp_path / "m.json"
    assert main(["models", "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["per"] == pytest.approx(0.03186372375543293, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["models", "--out", "{path}"],
    ["simulate", "--trace", "{path}"],
    ["delay-bound", "--dump-config", "--out", "{path}"],
    ["mean-delay", "--config", "{config}"],   # the config's output.path
])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_is_exit_2(tmp_path, capsys, argv, where):
    path = tmp_path / "missing" / "out.csv" if where == "missing-dir" else tmp_path
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"output": {"path": str(path)}}))
    code, out, err = run(capsys, *[a.format(path=path, config=cfg) for a in argv], "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"output error: cannot write {path}: ") and err.count("\n") == 1


def _golden_runs() -> list[tuple[str, list[str], int]]:
    """(golden file, argv, exit code) of each line of golden/runs.txt, in its order."""
    runs = []
    for line in (GOLDEN / "runs.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            golden, exit_code, _warnings, *argv = line.split()
            runs.append((golden, argv, int(exit_code)))
    return runs


GOLDEN_RUNS = _golden_runs()


# ids name the golden file and the argv index only, as they did before the exit code
@pytest.mark.parametrize("golden, argv, exit_code", GOLDEN_RUNS,
                         ids=[f"{golden}-argv{i}" for i, (golden, _, _) in enumerate(GOLDEN_RUNS)])
def test_default_output_is_byte_identical(capsys, monkeypatch, golden, argv, exit_code):
    monkeypatch.chdir(GOLDEN)   # the manifest's config paths are relative to it
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_trace_is_byte_identical(tmp_path):
    # overflow.json's link over 200 packets: 162 delivered, 32 queue drops and
    # 6 retry drops, so the trace holds every outcome and blank starts and delays
    doc = json.loads((GOLDEN / "overflow.json").read_text())
    doc["traffic"]["horizon"] = 200
    cfg, trace = tmp_path / "c.json", tmp_path / "t.csv"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--seed", "1", "--config", str(cfg), "--trace", str(trace),
                 "--out", str(tmp_path / "s.csv"), "--format", "json"]) == 0
    assert trace.read_bytes() == (GOLDEN / "trace-overflow.csv").read_bytes()


_NO_SCIPY_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None         # any scipy import now raises ImportError
sys.modules["dataclasses"] = None   # and so does any dataclasses import
from linkdelay import cli
runs = {}
for command in ("models", "mean-delay", "delay-bound", "simulate", "validate"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--seed", "1"])
    runs[command] = [code, out.getvalue()]
print(json.dumps(runs))
"""


def test_no_subcommand_needs_scipy():
    # the suite itself imports scipy, so only a fresh interpreter can tell
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    runs = json.loads(proc.stdout.splitlines()[-1])
    assert {command: code for command, (code, _) in runs.items()} == dict.fromkeys(runs, 0)
    for command in ("simulate", "validate"):
        assert runs[command][1] == (GOLDEN / f"{command}.csv").read_text(), command


_NO_NUMPY_PROBE = """
import contextlib, io, sys
sys.modules["numpy"] = None   # any numpy import now raises ImportError
import linkdelay
numerics = [m for m in ("service_time", "simulator", "snc", "_clopper_pearson")
            if "linkdelay." + m in sys.modules]
from linkdelay import cli
runs = {}
def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    runs[" ".join(argv)] = [code, out.getvalue()]
for command in ("models", "mean-delay"):
    run(command, "--seed", "1", "--format", "csv")
json_loaded = "json" in sys.modules   # no config file read and no JSON written yet
configs = sys.argv[1:]
for command in ("models", "mean-delay", "delay-bound"):
    # delay-bound's golden configs are the default, poisson.json and onoff.json
    for config in configs if command != "delay-bound" else configs[:3]:
        for fmt in ("csv", "json"):
            run(command, "--seed", "1", "--format", fmt, *(["--config", config] if config else []))
for command in ("models", "mean-delay", "delay-bound", "simulate", "validate"):
    run(command, "--dump-config")
simulation = [m for m in ("simulator", "_clopper_pearson") if "linkdelay." + m in sys.modules]
import json
print(json.dumps({"numerics": numerics, "json_loaded": json_loaded, "simulation": simulation,
                  "runs": runs}))
"""


def test_models_mean_delay_and_delay_bound_need_no_numpy():
    # the suite itself imports numpy, so only a fresh interpreter can tell
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    configs = ["", *(str(GOLDEN / f"{name}.json") for name in ("poisson", "onoff", "overflow"))]
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE, *configs], env=env,
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["numerics"] == []
    assert report["json_loaded"] is False
    assert report["simulation"] == []
    runs = report["runs"]
    assert len(runs) == 2 * len(configs) * 2 + 3 * 2 + 5
    assert {argv: code for argv, (code, _) in runs.items()} == dict.fromkeys(runs, 0)
    for command in ("models", "mean-delay"):
        out = runs[f"{command} --seed 1 --format csv"][1]
        assert out == (GOLDEN / f"{command}.csv").read_text(), command
    for suffix, config in (("", []), ("-poisson", ["--config", configs[1]]), ("-onoff", ["--config", configs[2]])):
        argv = " ".join(["delay-bound", "--seed", "1", "--format", "csv", *config])
        assert runs[argv][1] == (GOLDEN / f"delay-bound{suffix}.csv").read_text(), suffix


def test_cli_import_loads_neither_pathlib_nor_typing():
    # -S skips site, which on many hosts imports both for .pth files
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import linkdelay.cli; "
             "print(sorted({'pathlib', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["[]"]


# inputs whose fitted values overflow or whose interarrival time squares to 0, and
# each subcommand's exit code and a word its message must hold
EXTREME_INPUTS = {
    "snr": ({"link": {"snr": -5000}}, {
        "models": (2, "var_service_ms"),
        "mean-delay": (2, "plr_mean"),
        "delay-bound": (3, "overload"),
        "simulate": (0, None),
        "validate": (4, "no packets delivered"),
    }),
    "link_t_pit": ({"link": {"t_pit": 1e-200}}, {
        "models": (2, "t_pit"),
        "mean-delay": (2, "t_pit"),
        "validate": (0, None),
    }),
    "traffic_t_pit": ({"traffic": {"kind": "periodic", "t_pit": 1e-300}}, {
        "delay-bound": (3, "overload"),
        "validate": (2, "interarrival"),
    }),
    "var_scale": ({"moment_coeffs": {"var_scale": 1e308}}, {
        "models": (2, "var_service_ms"),
        "mean-delay": (2, "var_service_ms"),
        "validate": (0, None),
    }),
    # alpha * l_d overflows to inf and exp(beta * snr) underflows to 0: PER is nan
    "per_nan": ({"per_coeffs": {"alpha": 1e308}, "link": {"snr": 1e4}}, {
        "models": (2, "per"),
        "delay-bound": (2, "per"),
        "simulate": (2, "per"),
        "validate": (2, "per"),
    }),
}


@pytest.mark.parametrize("case, command", [(case, command) for case, (_, codes) in EXTREME_INPUTS.items()
                                           for command in codes])
def test_extreme_fitted_inputs_exit_cleanly(tmp_path, capsys, case, command):
    raw, codes = EXTREME_INPUTS[case]
    exit_code, word = codes[command]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == exit_code, err
    if word is not None:
        assert word in err and err.count("\n") == 1
    assert re.search(r"\b(inf|nan)\b", out) is None, out


@pytest.mark.parametrize("raw", [
    {"moment_coeffs": {"var_scale": 1e308}},
    # every fitted value is finite, but the queue's 1 - rho is so small that the wait overflows
    {"moment_coeffs": {"var_scale": 1e306, "mean_offset": 49.7482}},
])
def test_validate_leaves_an_unrepresentable_fitted_delay_blank(tmp_path, capsys, raw):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "validate", "--config", str(cfg))
    assert code == 0
    assert "# fitted_mean_delay_ms=\n" in out
    code, out, err = run(capsys, "mean-delay", "--config", str(cfg))
    assert code == 2 and out == "" and err.startswith("config error:")


@pytest.mark.parametrize("command", ["models", "mean-delay", "delay-bound", "simulate", "validate"])
def test_onoff_traffic_silent_for_too_many_cycles_is_a_config_error(tmp_path, capsys, command):
    # about 3e10 cycles, each of which emits nothing, for 100 packets: the
    # draw would not finish, so the subcommands that draw arrivals refuse it
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"traffic": {"kind": "onoff", "lam_on_off": 0.03, "mu_off_on": 0.02,
                                           "rate": 1e-10, "horizon": 100}}))
    code, out, err = run(capsys, command, "--config", str(cfg), "--seed", "1")
    if command in ("simulate", "validate"):
        assert (code, out) == (2, "")
        assert err == ("config error: on-off traffic would draw about 3e+10 on-off cycles for its "
                       "100 packets, past the limit of 1e+08: raise rate or lower lam_on_off or "
                       "horizon\n")
    else:
        assert (code, err) == (0, "")


HUGE_HORIZON = {
    # 1e15 packets: 7 PiB of arrivals, past the address space, so numpy's allocation fails at once
    "periodic": {"kind": "periodic", "t_pit": 50.0},
    "poisson": {"kind": "poisson", "rate": 0.02},
    "onoff": {"kind": "onoff", "lam_on_off": 0.05, "mu_off_on": 0.05, "rate": 1e9},
}


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("kind", list(HUGE_HORIZON))
def test_horizon_too_large_to_allocate_is_a_config_error(tmp_path, capsys, kind, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"traffic": {**HUGE_HORIZON[kind], "horizon": 10**15}}))
    code, out, err = run(capsys, command, "--config", str(cfg), "--seed", "1")
    assert err.count("\n") == 1 and "Traceback" not in err
    if (kind, command) == ("onoff", "validate"):
        # the on-off source offers rho about 6e9: validate's analysis, which comes
        # before its simulation, refuses the config first
        assert (code, out) == (3, "") and err.startswith("overloaded: traffic intensity rho=")
        return
    assert (code, out) == (2, "")
    assert err.startswith("config error: traffic horizon too large to simulate: ")


def _finite(lo, hi, **bounds):
    """Floats in [lo, hi] half the time, and finite floats of any magnitude within bounds."""
    return st.one_of(st.floats(lo, hi),
                     st.floats(allow_nan=False, allow_infinity=False, **bounds))


@st.composite
def fitted_configs(draw):
    """Valid configs, mostly near the defaults, some at the ends of the float range."""
    positive = {"min_value": 0.0, "exclude_min": True}
    negative = {"max_value": 0.0, "exclude_max": True}
    link = {
        "snr": draw(_finite(-30.0, 50.0)),
        "l_d": draw(st.integers(0, 114)),
        "t_pit": draw(_finite(1.0, 500.0, **positive)),
        "d_retry": draw(_finite(0.0, 100.0, min_value=0.0)),
        "q_max": draw(st.integers(1, 10**6)),
        "n_max_tries": draw(st.integers(1, 64)),
    }
    per = {"alpha": draw(_finite(1e-4, 1.0, **positive)), "beta": draw(_finite(-1.0, -1e-3, **negative))}
    moments = {name: draw(_finite(-1.0, -1e-3, **negative) if name.endswith("exponent")
                          else _finite(1e-4, 100.0, **positive))
               for name in ("mean_scale", "mean_exponent", "var_scale", "var_exponent",
                            "plr_mean_scale", "plr_mean_exponent", "plr_var_scale",
                            "plr_var_exponent")}
    moments["mean_offset"] = draw(_finite(0.0, 50.0, min_value=0.0))
    return {"link": link, "per_coeffs": per, "moment_coeffs": moments}


@pytest.fixture(scope="module")
def sweep_config(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep") / "c.json"


@settings(max_examples=100, deadline=None)
@given(fitted_configs())
def test_fitted_subcommands_exit_cleanly_on_any_finite_input(sweep_config, raw):
    sweep_config.write_text(json.dumps(raw))
    for command in ("models", "mean-delay"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(sweep_config)])
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            header, row = out.getvalue().splitlines()
            assert all(math.isfinite(float(value)) for value in row.split(",")), (header, row)


@st.composite
def operating_points(draw):
    """A link of any payload, channel and retry limits, traffic of any kind at a load of 0.05-1.5."""
    link = {
        "l_d": draw(st.integers(0, 114)),
        "snr": draw(st.floats(-10.0, 40.0)),
        "n_max_tries": draw(st.integers(1, 8)),
        "d_retry": draw(st.sampled_from([0.0, draw(st.floats(0.0, 100.0))])),
        "q_max": draw(st.sampled_from([1, 2, draw(st.integers(1, 1000))])),
    }
    p_e = packet_error_rate(link["l_d"], link["snr"], PerCoefficients())
    mean_t = service_distribution(LinkConfig(**link), TimingConstants(), p_e).mean()
    rho = draw(st.floats(0.05, 1.5))
    link["t_pit"] = mean_t / rho
    horizon = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["periodic", "poisson", "onoff"]))
    if kind == "periodic":
        traffic = {"t_pit": mean_t / rho}
    elif kind == "poisson":
        traffic = {"rate": rho / mean_t}
    else:
        switch = 1.0 / (draw(st.floats(1.0, 10.0)) * mean_t)
        traffic = {"lam_on_off": switch, "mu_off_on": switch, "rate": 2.0 * rho / mean_t}
    return {"link": link, "traffic": {"kind": kind, "horizon": horizon, **traffic}}


@settings(max_examples=60, deadline=None)
@given(operating_points())
def test_every_subcommand_exits_cleanly_at_any_operating_point(sweep_config, raw):
    sweep_config.write_text(json.dumps(raw))
    outputs = {}
    for command in ("models", "mean-delay", "delay-bound", "simulate", "validate"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(sweep_config)])
        outputs[command] = code, out.getvalue()
        err = err.getvalue().splitlines()
        assert code in (0, 2, 3, 4), (command, err)
        # an error is one stderr line (an exception would have ended the call);
        # a validation that fails prints its rows and no error
        assert len(err) == (code != 0) or (code == 4 and not err), (command, err)
        if command == "simulate" and code == 0:
            counts = dict(line[2:].split("=") for line in out.getvalue().splitlines() if line.startswith("# n_"))
            assert int(counts["n_arrivals"]) == raw["traffic"]["horizon"]
            assert int(counts["n_arrivals"]) == sum(int(counts[k]) for k in (
                "n_delivered", "n_queue_drops", "n_retry_drops"))
    # where validate prints its summary, its fitted mean is mean-delay's delay_ms,
    # and blank exactly where mean-delay refuses the fitted route
    summary = dict(line[2:].split("=") for line in outputs["validate"][1].splitlines() if line.startswith("# "))
    if summary:
        code, out = outputs["mean-delay"]
        assert summary["fitted_mean_delay_ms"] == (out.splitlines()[1].split(",")[-1] if code == 0 else "")
