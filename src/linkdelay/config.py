"""JSON run configuration: defaults, strict key checking, round-trip dump."""

from __future__ import annotations

import math
import numbers

from ._record import Frozen, set_field
from .empirical import LinkConfig, MomentCoefficients, PerCoefficients, TimingConstants, _check_integer
from .traffic import OnOffTraffic, PeriodicTraffic, PoissonTraffic, TrafficSpec

TYPE_CHECKING = False  # typing.TYPE_CHECKING for type checkers, without importing typing
if TYPE_CHECKING:
    from os import PathLike

__all__ = ["ConfigError", "RunConfig", "ThetaGridSpec", "load_config", "dump_config", "default_config"]

DEFAULT_DELAY_GRID = tuple(float(d) for d in range(15, 95, 5))
DEFAULT_HORIZON = 20000


class ConfigError(Exception):
    """Invalid run configuration."""


class ThetaGridSpec(Frozen):
    """The theta grid of the tail-bound optimiser; its defaults are the package's default grid."""

    __slots__ = ("min", "max", "points")

    def __init__(self, min: float = 1e-5, max: float = 1.0, points: int = 60) -> None:
        _check_integer("points", points)
        if min <= 0.0 or max <= min:
            raise ValueError("theta grid needs 0 < min < max")
        if points < 2:
            raise ValueError("theta grid needs at least 2 points")
        set_field(self, "min", min)
        set_field(self, "max", max)
        set_field(self, "points", points)

    def values(self) -> tuple[float, ...]:
        """points exponents from min to max, evenly spaced in log10, as Python floats.

        The exponents of ten are np.logspace's: k * step + start, and stop
        itself for the last point.  The powers are the C library's, which
        rounds all 60 default points correctly; numpy's vectorised power
        (AVX-512) missed 4 of them.
        """
        start, stop = math.log10(self.min), math.log10(self.max)
        step = (stop - start) / (self.points - 1)
        return (*(10.0 ** (k * step + start) for k in range(self.points - 1)), 10.0 ** stop)


class RunConfig(Frozen):
    __slots__ = ("link", "timing", "per_coeffs", "moment_coeffs", "traffic", "seed", "delay_grid",
                 "theta_grid", "mean_delay_tolerance", "output_path", "output_format")

    def __init__(
        self,
        link: LinkConfig,
        timing: TimingConstants,
        per_coeffs: PerCoefficients,
        moment_coeffs: MomentCoefficients,
        traffic: TrafficSpec,
        seed: int,
        delay_grid: tuple[float, ...],
        theta_grid: ThetaGridSpec,
        mean_delay_tolerance: float,
        output_path: str | None,
        output_format: str,
    ) -> None:
        set_field(self, "link", link)
        set_field(self, "timing", timing)
        set_field(self, "per_coeffs", per_coeffs)
        set_field(self, "moment_coeffs", moment_coeffs)
        set_field(self, "traffic", traffic)
        set_field(self, "seed", seed)
        set_field(self, "delay_grid", delay_grid)
        set_field(self, "theta_grid", theta_grid)
        set_field(self, "mean_delay_tolerance", mean_delay_tolerance)
        set_field(self, "output_path", output_path)
        set_field(self, "output_format", output_format)


def default_config() -> RunConfig:
    return RunConfig(
        link=LinkConfig(),
        timing=TimingConstants(),
        per_coeffs=PerCoefficients(),
        moment_coeffs=MomentCoefficients(),
        traffic=PeriodicTraffic(t_pit=50.0, horizon=DEFAULT_HORIZON),
        seed=12345,
        delay_grid=DEFAULT_DELAY_GRID,
        theta_grid=ThetaGridSpec(),
        mean_delay_tolerance=0.25,
        output_path=None,
        output_format="csv",
    )


# real numbers, int and float first: the check against the abstract Real is slow
_REAL = (int, float, numbers.Real)


def _build_section(cls, data: dict, section: str):
    """cls from the section's keys; every field of a section is a number, and a finite one."""
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be an object, got {data!r}")
    allowed = set(cls.__slots__)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key '{sorted(unknown)[0]}' in section '{section}' "
            f"(allowed: {sorted(allowed)})"
        )
    try:
        for key, value in data.items():
            # bools are not numbers here; ints are finite, and counts check the rest in cls
            if isinstance(value, bool) or not isinstance(value, _REAL) or not (
                    isinstance(value, int) or math.isfinite(value)):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section '{section}': {exc}") from exc


_TRAFFIC_CLASSES = {cls.kind: cls for cls in (PeriodicTraffic, PoissonTraffic, OnOffTraffic)}


def _build_traffic(data: dict) -> TrafficSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"traffic section needs to be an object with a 'kind' key "
                          f"({'|'.join(_TRAFFIC_CLASSES)})")
    kind = data["kind"]
    cls = _TRAFFIC_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown traffic kind '{kind}' (allowed: {sorted(_TRAFFIC_CLASSES)})")
    return _build_section(cls, {k: v for k, v in data.items() if k != "kind"}, "traffic")


def _as_number(value) -> float:
    """value as a float; TypeError for anything but a real number (bools included)."""
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


_SECTIONS = ("link", "timing", "per_coeffs", "moment_coeffs", "traffic", "seed",
             "delay_grid", "theta_grid", "mean_delay_tolerance", "output")


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' at top level (allowed: {sorted(_SECTIONS)})")
    base = default_config()
    link = _build_section(LinkConfig, raw.get("link", {}), "link") if "link" in raw else base.link
    timing = _build_section(TimingConstants, raw.get("timing", {}), "timing") if "timing" in raw else base.timing
    per_coeffs = (_build_section(PerCoefficients, raw["per_coeffs"], "per_coeffs")
                  if "per_coeffs" in raw else base.per_coeffs)
    moment_coeffs = (_build_section(MomentCoefficients, raw["moment_coeffs"], "moment_coeffs")
                     if "moment_coeffs" in raw else base.moment_coeffs)
    traffic = _build_traffic(raw["traffic"]) if "traffic" in raw else base.traffic

    seed = raw.get("seed", base.seed)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    delay_grid = raw.get("delay_grid", base.delay_grid)
    try:
        delay_grid = tuple(_as_number(d) for d in delay_grid)
    except TypeError as exc:
        raise ConfigError(f"delay_grid must be a list of numbers: {exc}") from exc
    if not delay_grid or any(not 0.0 < d < math.inf for d in delay_grid) or any(
        b <= a for a, b in zip(delay_grid, delay_grid[1:])
    ):
        raise ConfigError("delay_grid must be a strictly increasing list of positive, finite ms values")

    theta_grid = (_build_section(ThetaGridSpec, raw["theta_grid"], "theta_grid")
                  if "theta_grid" in raw else base.theta_grid)

    tolerance = raw.get("mean_delay_tolerance", base.mean_delay_tolerance)
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)) or not tolerance >= 0.0:
        raise ConfigError(f"mean_delay_tolerance must be a number >= 0, got {tolerance!r}")

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output section must be an object")
    unknown = set(output) - {"path", "format"}
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in section 'output'")
    output_path = output.get("path", base.output_path)
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"output path must be a string or null, got {output_path!r}")
    output_format = output.get("format", base.output_format)
    if output_format not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {output_format!r}")

    return RunConfig(
        link=link,
        timing=timing,
        per_coeffs=per_coeffs,
        moment_coeffs=moment_coeffs,
        traffic=traffic,
        seed=seed,
        delay_grid=delay_grid,
        theta_grid=theta_grid,
        mean_delay_tolerance=float(tolerance),
        output_path=output_path,
        output_format=output_format,
    )


def load_config(path: str | PathLike[str]) -> RunConfig:
    import json

    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def _section_dict(obj) -> dict:
    return {name: getattr(obj, name) for name in obj.__slots__}


def dump_config(cfg: RunConfig) -> dict:
    """JSON-ready dict that loads back to an identical RunConfig."""
    traffic = _section_dict(cfg.traffic)
    traffic["kind"] = cfg.traffic.kind
    out: dict = {
        "link": _section_dict(cfg.link),
        "timing": _section_dict(cfg.timing),
        "per_coeffs": _section_dict(cfg.per_coeffs),
        "moment_coeffs": _section_dict(cfg.moment_coeffs),
        "traffic": traffic,
        "seed": cfg.seed,
        "delay_grid": list(cfg.delay_grid),
        "theta_grid": _section_dict(cfg.theta_grid),
        "mean_delay_tolerance": cfg.mean_delay_tolerance,
    }
    output: dict = {"format": cfg.output_format}
    if cfg.output_path is not None:
        output["path"] = cfg.output_path
    out["output"] = output
    return out
