"""Scenario files: a flat key-value grammar with dotted keys.

Lines are ``key = value`` pairs; ``#`` starts a comment and blank lines are
ignored. Unknown or duplicate keys are errors. File units follow the usual
presentation units (GHz, ps, dBm, meters) and are converted to SI on load.
An empty file yields the default scenario. See docs/formats.md for the key
table.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .geometry import (
    SPEED_OF_LIGHT,
    EvaluationPlane,
    FrequencyGrid,
    IrsLayout,
    PanelPlaneWarning,
    Point3,
    Scene,
    SubsurfacePartition,
)

HALF_WAVELENGTH = "half-wavelength"


class ScenarioError(ValueError):
    """A scenario file failed to parse or violated a model invariant."""


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ScenarioError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {text!r}") from None


def _list_of(parse):
    """Parser for a comma-separated list of values, each read by `parse`."""
    return lambda text: tuple(parse(part.strip()) for part in text.split(",") if part.strip())


def _parse_spacing(text: str):
    if text.strip() == HALF_WAVELENGTH:
        return HALF_WAVELENGTH
    return _parse_float(text)


_KEYS = {
    "bs.x_m": (_parse_float, 0.0),
    "bs.y_m": (_parse_float, 1.5),
    "bs.z_m": (_parse_float, -1.5),
    "user.x_m": (_parse_float, 2.0),
    "user.y_m": (_parse_float, -4.0),
    "user.z_m": (_parse_float, -2.0),
    "irs.n_y": (_parse_int, 100),
    "irs.n_z": (_parse_int, 100),
    "irs.d_m": (_parse_spacing, HALF_WAVELENGTH),
    "partition.k_y": (_parse_int, 10),
    "partition.k_z": (_parse_int, 10),
    "grid.f_c_ghz": (_parse_float, 300.0),
    "grid.bandwidth_ghz": (_parse_float, 30.0),
    "grid.subcarriers": (_parse_int, 128),
    "plane.x_min_m": (_parse_float, 0.5),
    "plane.x_max_m": (_parse_float, 4.0),
    "plane.y_min_m": (_parse_float, -6.0),
    "plane.y_max_m": (_parse_float, 2.0),
    "plane.points_x": (_parse_int, 201),
    "plane.points_y": (_parse_int, 201),
    "sweep.t_req_ps": (_list_of(_parse_float), tuple(float(t) for t in range(21))),
    "sweep.partition_sizes": (_list_of(_parse_int), (1, 2, 4, 5, 10, 20, 25, 50)),
    "rate.p_bs_dbm": (_list_of(_parse_float), tuple(float(p) for p in range(30, 95, 5))),
    "rate.noise_dbm_hz": (_parse_float, -174.0),
}


@dataclass(frozen=True)
class Scenario:
    """A scenario resolved once by `parse_scenario`.

    `values` holds the file values (file units) and `digest` their stable hash
    (sorted key=repr lines). The other fields are built from them, in SI units
    except `p_bs_dbm`.
    """

    values: dict
    scene: Scene
    grid: FrequencyGrid
    plane: EvaluationPlane
    partition_sizes: tuple[int, ...]
    t_req_seconds: tuple[float, ...]
    p_bs_dbm: tuple[float, ...]
    p_bs_watts: tuple[float, ...]
    noise_density: float
    digest: str


def _watts(key: str, dbm: float) -> float:
    """`dbm` in watts; a level that overflows a float or rounds to 0 W is an error."""
    try:
        watts = 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise ScenarioError(f"{key}: {dbm:g} dBm is too large to express in watts") from None
    if watts == 0.0:
        raise ScenarioError(f"{key}: {dbm:g} dBm is too small to express in watts (0 W)")
    return watts


def _hertz(key: str, ghz: float) -> float:
    """`ghz` in Hz; a frequency that overflows a float is an error."""
    hz = ghz * 1e9
    if not math.isfinite(hz):
        raise ScenarioError(f"{key}: {ghz:g} GHz is too large to express in Hz")
    return hz


def _digest(values: dict) -> str:
    lines = []
    for key, value in sorted(values.items()):
        rendered = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        lines.append(f"{key}={rendered}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _resolve(values: dict, source: str) -> Scenario:
    """Build and validate every domain object of `values`, read from `source`, once."""
    v = values
    if not v["grid.f_c_ghz"] > 0:  # before the half-wavelength spacing divides by it
        raise ScenarioError(f"grid.f_c_ghz must be above 0 GHz, got {v['grid.f_c_ghz']!r}")
    f_c = _hertz("grid.f_c_ghz", v["grid.f_c_ghz"])
    d = SPEED_OF_LIGHT / f_c / 2.0 if v["irs.d_m"] == HALF_WAVELENGTH else v["irs.d_m"]
    if not math.isfinite(d):
        raise ScenarioError(f"grid.f_c_ghz: {v['grid.f_c_ghz']:g} GHz is too small to express "
                            "its half-wavelength spacing in meters")
    bandwidth = _hertz("grid.bandwidth_ghz", v["grid.bandwidth_ghz"])
    try:
        layout = IrsLayout(v["irs.n_y"], v["irs.n_z"], d)
        partition = SubsurfacePartition.for_layout(layout, v["partition.k_y"], v["partition.k_z"])
        scene = Scene(Point3(v["bs.x_m"], v["bs.y_m"], v["bs.z_m"]),
                      Point3(v["user.x_m"], v["user.y_m"], v["user.z_m"]), layout, partition)
        grid = FrequencyGrid(f_c=f_c, bandwidth=bandwidth, m_count=v["grid.subcarriers"])
        plane = EvaluationPlane(
            x_min=v["plane.x_min_m"], x_max=v["plane.x_max_m"],
            y_min=v["plane.y_min_m"], y_max=v["plane.y_max_m"],
            z=v["user.z_m"], n_x=v["plane.points_x"], n_y=v["plane.points_y"],
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    for name, which in (("BS", "bs"), ("user", "user")):
        if v[f"{which}.x_m"] == 0.0:
            warnings.warn(PanelPlaneWarning(
                f"{source}: {which}.x_m: {name} lies exactly in the panel plane (x = 0); "
                "formulas remain defined but placement is grazing", which),
                stacklevel=3)  # the caller of parse_scenario
    if grid.m_count < 2:
        raise ScenarioError("grid.subcarriers must be >= 2 (edge gains need both edges)")
    sizes = v["sweep.partition_sizes"]
    if not sizes:
        raise ScenarioError("sweep.partition_sizes must not be empty")
    for k in sizes:
        if k < 1 or layout.n_y % k != 0 or layout.n_z % k != 0:
            raise ScenarioError(
                f"sweep.partition_sizes entry {k} does not divide the "
                f"{layout.n_y}x{layout.n_z} layout"
            )
    if any(t < 0 for t in v["sweep.t_req_ps"]):
        raise ScenarioError("sweep.t_req_ps entries must be >= 0")
    if not v["sweep.t_req_ps"]:
        raise ScenarioError("sweep.t_req_ps must not be empty")
    if not v["rate.p_bs_dbm"]:
        raise ScenarioError("rate.p_bs_dbm must not be empty")
    return Scenario(
        values=values,
        scene=scene,
        grid=grid,
        plane=plane,
        partition_sizes=sizes,
        t_req_seconds=tuple(t * 1e-12 for t in v["sweep.t_req_ps"]),
        p_bs_dbm=v["rate.p_bs_dbm"],
        p_bs_watts=tuple(_watts("rate.p_bs_dbm", p) for p in v["rate.p_bs_dbm"]),
        noise_density=_watts("rate.noise_dbm_hz", v["rate.noise_dbm_hz"]),
        digest=_digest(values),
    )


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario text; unset keys take the default scenario's values."""
    values = {key: default for key, (_, default) in _KEYS.items()}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ScenarioError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        parser, _ = _KEYS[key]
        try:
            values[key] = parser(value)
        except ScenarioError as exc:
            raise ScenarioError(f"{source}:{lineno}: {key}: {exc}") from None
    return _resolve(values, source)


def load_scenario(path: str | Path | None = None) -> Scenario:
    """Load a scenario file; None or an empty file gives the default scenario."""
    if path is None:
        return parse_scenario("", source="<defaults>")
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from None
    return parse_scenario(text, source=str(p))


def default_scenario() -> Scenario:
    return parse_scenario("", source="<defaults>")


def scenario_keys() -> Iterable[str]:
    """All recognized scenario keys (for documentation and tooling)."""
    return _KEYS.keys()
