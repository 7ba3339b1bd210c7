"""Named experiment runners and result serialization.

Every runner is deterministic: the same scenario file produces byte-identical
CSV data sections. Results carry a provenance header with the experiment name,
the scenario hash and the package version.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import IO, Sequence

import numpy as np

from . import __version__
from .beamforming import (
    BeamformerConfig,
    dldd_design,
    narrowband_design,
    per_element_td_design,
    td_module_count,
)
from .channel import element_distances
from .geometry import FrequencyGrid, SubsurfacePartition
from .metrics import (
    _cascade_sums,
    beam_pattern,
    cascade_gain_magnitudes,
    gain_profile,
    rates_from_gain,
)
from .scenario import Scenario, ScenarioError

DESIGN_NAMES = ("narrowband", "dldd", "per-element")

FREQUENCY_TOKENS = ("f1", "fc", "fM")


@dataclass(frozen=True)
class ResultTable:
    """A rectangular numeric result with a provenance header."""

    experiment: str
    scenario_hash: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    comments: tuple[str, ...] = field(default=())
    version: str = __version__

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must match the column count")

    @staticmethod
    def _cell(value) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    def to_csv(self, fh: IO[str]) -> None:
        fh.write(f"# experiment: {self.experiment}\n")
        fh.write(f"# scenario-hash: {self.scenario_hash}\n")
        fh.write(f"# version: irslab {self.version}\n")
        fh.write(",".join(self.columns) + "\n")
        for row in self.rows:
            fh.write(",".join(self._cell(v) for v in row) + "\n")
        for comment in self.comments:
            fh.write(f"# {comment}\n")

    def to_json(self, fh: IO[str]) -> None:
        json.dump(
            {
                "experiment": self.experiment,
                "scenario_hash": self.scenario_hash,
                "version": self.version,
                "comments": list(self.comments),
                "columns": list(self.columns),
                "rows": [list(map(float, row)) for row in self.rows],
            },
            fh,
            indent=2,
        )
        fh.write("\n")

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


def _column_name(design: str) -> str:
    return design.replace("-", "_")


def build_design(scenario: Scenario, name: str) -> BeamformerConfig:
    # looked up per call, so a rebound module name (as perfbench's tracer does) is honored
    designs = {"narrowband": narrowband_design, "dldd": dldd_design,
               "per-element": per_element_td_design}
    if name not in designs:
        raise ScenarioError(f"unknown design {name!r}; expected one of {DESIGN_NAMES}")
    return designs[name](scenario.scene, scenario.grid)


def resolve_frequencies(scenario: Scenario, tokens: Sequence[str | float]) -> list[float]:
    """Map 'f1' / 'fc' / 'fM' tokens (or explicit finite positive GHz values) to Hz.

    Tokens may come in any order, but no two may resolve to the same frequency.
    """
    grid = scenario.grid
    named = {"f1": grid.frequencies[0], "fc": grid.f_c, "fM": grid.frequencies[-1]}
    out: dict[float, str | float] = {}
    for tok in tokens:
        try:
            hz = float(named[tok]) if tok in named else float(tok) * 1e9
        except ValueError:
            raise ScenarioError(
                f"unknown frequency token {tok!r}; use f1, fc, fM or a GHz value"
            ) from None
        if not math.isfinite(hz):
            raise ScenarioError(f"frequency {tok!r} is not a finite GHz value")
        if hz <= 0:
            raise ScenarioError(f"frequency {tok!r} must be above 0 GHz")
        if hz in out:
            raise ScenarioError(f"frequency {tok!r} repeats {out[hz]!r} ({hz / 1e9!r} GHz)")
        out[hz] = tok
    return list(out)


def run_gain_profile(
    scenario: Scenario, designs: Sequence[str] = DESIGN_NAMES
) -> ResultTable:
    """Normalized array gain at each subcarrier for the selected designs."""
    scene, grid = scenario.scene, scenario.grid
    profiles = {name: gain_profile(scene, grid, build_design(scenario, name)) for name in designs}
    freqs = grid.frequencies
    rows = tuple(
        (m, freqs[m] / 1e9, *(float(profiles[name].gains[m]) for name in designs))
        for m in range(grid.m_count)
    )
    return ResultTable(
        experiment="gain-profile",
        scenario_hash=scenario.digest,
        columns=("subcarrier_index", "frequency_ghz", *(f"gain_{_column_name(n)}" for n in designs)),
        rows=rows,
    )


def run_beam_pattern(
    scenario: Scenario,
    design: str = "narrowband",
    frequencies: Sequence[str | float] = FREQUENCY_TOKENS,
) -> ResultTable:
    """Gain over the scenario's evaluation plane, long format, peaks appended."""
    config = build_design(scenario, design)
    freqs = resolve_frequencies(scenario, frequencies)
    pattern = beam_pattern(scenario.scene, scenario.grid, config, freqs, scenario.plane)
    xs, ys = pattern.plane.x_coords(), pattern.plane.y_coords()
    rows = tuple(
        (f / 1e9, x, y, float(g))
        for f, plane_gains in zip(pattern.frequencies, pattern.gains)
        for x, row in zip(xs, plane_gains)
        for y, g in zip(ys, row)
    )
    comments = tuple(
        "peak: frequency_ghz=%s x_m=%s y_m=%s gain=%s ix=%d iy=%d"
        % (repr(p.frequency / 1e9), repr(p.x), repr(p.y), repr(p.gain), p.ix, p.iy)
        for p in pattern.peaks
    )
    return ResultTable(
        experiment="beam-pattern",
        scenario_hash=scenario.digest,
        columns=("frequency_ghz", "x_m", "y_m", "gain"),
        rows=rows,
        comments=comments,
    )


def _edge_gains(
    config: BeamformerConfig, grid: FrequencyGrid, r_bs: np.ndarray, r_user: np.ndarray
) -> float:
    """Smaller of the two edge-subcarrier normalized gains, given both element distances."""
    f1, f_m = grid.frequencies[[0, -1]]
    sums = _cascade_sums(config, r_bs, r_user, grid.c, f1, f_m - f1, 2)
    return min(float(np.abs(sums).min()) / r_bs.size, 1.0)


def run_td_count_sweep(scenario: Scenario) -> ResultTable:
    """Edge-subcarrier gain of the DLDD design versus the delta-delay module count."""
    scene, grid = scenario.scene, scenario.grid
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    rows = []
    for k in scenario.partition_sizes:
        part = SubsurfacePartition.for_layout(scene.layout, k, k)
        config = dldd_design(scene, grid, part)
        rows.append((td_module_count(part), _edge_gains(config, grid, r_bs, r_user)))
    return ResultTable(
        experiment="td-count-sweep",
        scenario_hash=scenario.digest,
        columns=("k_t", "edge_gain"),
        rows=tuple(rows),
    )


def run_delay_range_sweep(scenario: Scenario) -> ResultTable:
    """Edge gain of DLDD and the per-element benchmark under a module-delay cap."""
    scene, grid = scenario.scene, scenario.grid
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    designs = (build_design(scenario, "dldd"), build_design(scenario, "per-element"))
    rows = tuple(
        (t * 1e12, *(_edge_gains(replace(d, delay_cap=t), grid, r_bs, r_user) for d in designs))
        for t in scenario.t_req_seconds
    )
    return ResultTable(
        experiment="delay-range-sweep",
        scenario_hash=scenario.digest,
        columns=("t_req_ps", "edge_gain_dldd", "edge_gain_per_element"),
        rows=rows,
    )


def run_rate_sweep(scenario: Scenario, designs: Sequence[str] = DESIGN_NAMES) -> ResultTable:
    """Mean achievable rate per design versus BS transmit power."""
    scene, grid, noise = scenario.scene, scenario.grid, scenario.noise_density
    gains = {
        name: cascade_gain_magnitudes(scene, grid, build_design(scenario, name))
        for name in designs
    }
    rows = tuple(
        (p_dbm, *(float(rates_from_gain(gains[n], grid, watts, noise).mean()) for n in designs))
        for p_dbm, watts in zip(scenario.p_bs_dbm, scenario.p_bs_watts)
    )
    return ResultTable(
        experiment="rate-sweep",
        scenario_hash=scenario.digest,
        columns=("p_bs_dbm", *(f"rate_{_column_name(n)}" for n in designs)),
        rows=rows,
    )


def export_config(scenario: Scenario, design: str) -> dict:
    """Hardware-table export: the beamformer configuration as a JSON-ready dict."""
    config = build_design(scenario, design)
    out = config.as_dict()
    out["scenario_hash"] = scenario.digest
    out["version"] = __version__
    return out
