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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .geometry import (
    SPEED_OF_LIGHT,
    FrequencyGrid,
    IrsLayout,
    Point3,
    Scene,
    SubsurfacePartition,
)
from .metrics import EvaluationPlane

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


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class Scenario:
    """A fully resolved experiment description (SI units internally)."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    # --- resolved domain objects ---

    @property
    def f_c(self) -> float:
        return self.values["grid.f_c_ghz"] * 1e9

    @property
    def spacing(self) -> float:
        d = self.values["irs.d_m"]
        if d == HALF_WAVELENGTH:
            return SPEED_OF_LIGHT / self.f_c / 2.0
        return d

    def layout(self) -> IrsLayout:
        return IrsLayout(self.values["irs.n_y"], self.values["irs.n_z"], self.spacing)

    def partition(self) -> SubsurfacePartition:
        return SubsurfacePartition.for_layout(
            self.layout(), self.values["partition.k_y"], self.values["partition.k_z"]
        )

    def scene(self) -> Scene:
        return Scene(
            bs=Point3(self.values["bs.x_m"], self.values["bs.y_m"], self.values["bs.z_m"]),
            user=Point3(
                self.values["user.x_m"], self.values["user.y_m"], self.values["user.z_m"]
            ),
            layout=self.layout(),
            partition=self.partition(),
        )

    def grid(self) -> FrequencyGrid:
        return FrequencyGrid(
            f_c=self.f_c,
            bandwidth=self.values["grid.bandwidth_ghz"] * 1e9,
            m_count=self.values["grid.subcarriers"],
        )

    def plane(self) -> EvaluationPlane:
        return EvaluationPlane(
            x_min=self.values["plane.x_min_m"],
            x_max=self.values["plane.x_max_m"],
            y_min=self.values["plane.y_min_m"],
            y_max=self.values["plane.y_max_m"],
            z=self.values["user.z_m"],
            n_x=self.values["plane.points_x"],
            n_y=self.values["plane.points_y"],
        )

    @property
    def t_req_seconds(self) -> tuple[float, ...]:
        return tuple(t * 1e-12 for t in self.values["sweep.t_req_ps"])

    @property
    def partition_sizes(self) -> tuple[int, ...]:
        return self.values["sweep.partition_sizes"]

    @property
    def p_bs_dbm(self) -> tuple[float, ...]:
        return self.values["rate.p_bs_dbm"]

    @property
    def noise_density(self) -> float:
        return dbm_to_watts(self.values["rate.noise_dbm_hz"])

    # --- identity ---

    def digest(self) -> str:
        """Stable hash of the resolved scenario values (sorted key=repr lines)."""
        lines = []
        for key, value in sorted(self.values.items()):
            rendered = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
            lines.append(f"{key}={rendered}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _validate(values: dict) -> None:
    scenario = Scenario(values)
    try:
        layout = scenario.layout()
        scenario.partition()
        grid = scenario.grid()
        scenario.plane()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    if grid.m_count < 2:
        raise ScenarioError("grid.subcarriers must be >= 2 (edge gains need both edges)")
    if not scenario.partition_sizes:
        raise ScenarioError("sweep.partition_sizes must not be empty")
    for k in scenario.partition_sizes:
        if k < 1 or layout.n_y % k != 0 or layout.n_z % k != 0:
            raise ScenarioError(
                f"sweep.partition_sizes entry {k} does not divide the "
                f"{layout.n_y}x{layout.n_z} layout"
            )
    if any(t < 0 for t in scenario.values["sweep.t_req_ps"]):
        raise ScenarioError("sweep.t_req_ps entries must be >= 0")
    if not scenario.values["sweep.t_req_ps"]:
        raise ScenarioError("sweep.t_req_ps must not be empty")
    if not scenario.values["rate.p_bs_dbm"]:
        raise ScenarioError("rate.p_bs_dbm must not be empty")
    levels = [("rate.p_bs_dbm", p) for p in scenario.p_bs_dbm]
    for key, dbm in levels + [("rate.noise_dbm_hz", values["rate.noise_dbm_hz"])]:
        try:
            dbm_to_watts(dbm)
        except OverflowError:
            raise ScenarioError(f"{key}: {dbm:g} dBm is too large to express in watts") from None


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
    _validate(values)
    return Scenario(values)


def load_scenario(path: str | Path | None = None) -> Scenario:
    """Load a scenario file; None or an empty file gives the default scenario."""
    if path is None:
        return parse_scenario("", source="<defaults>")
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from None
    return parse_scenario(text, source=str(p))


def default_scenario() -> Scenario:
    return parse_scenario("", source="<defaults>")


def scenario_keys() -> Iterable[str]:
    """All recognized scenario keys (for documentation and tooling)."""
    return _KEYS.keys()
