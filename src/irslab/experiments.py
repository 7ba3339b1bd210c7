"""Named experiment runners and result serialization.

Every runner is deterministic: the same scenario file produces byte-identical
CSV data sections. Results carry a provenance header with the experiment name,
the scenario hash and the package version.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
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
from .geometry import SubsurfacePartition
from .metrics import (
    beam_pattern,
    cascade_gain_magnitudes,
    edge_gain,
    gain_profile,
    rates_from_gain,
)
from .scenario import Scenario, ScenarioError

DESIGN_NAMES = ("narrowband", "dldd", "per-element")

FREQUENCY_TOKENS = ("f1", "fc", "fM")


# rows formatted at a time by the writers; bounds their extra memory
_BLOCK_ROWS = 2048

# the text `json` writes for the floats that have no JSON literal
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _JsonText:
    """Text that `_write_json` writes as it stands, as one or more items of a list."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


@dataclass(frozen=True)
class ResultTable:
    """Named, equal-length numeric columns with a provenance header."""

    experiment: str
    scenario_hash: str
    data: dict[str, np.ndarray]
    comments: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        shapes = {np.shape(c) for c in self.data.values()}
        if len(shapes) > 1 or any(len(s) != 1 for s in shapes):
            raise ValueError("columns must be 1-D arrays of one length")

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.data)

    def _text_blocks(
        self, head: str, sep: str, tail: str, between: str = "", dtype=None, nonfinite=None
    ) -> Iterator[str]:
        """The rows as text, _BLOCK_ROWS rows at a time: each row is head, its cells joined
        by sep, then tail, and the rows of a block are joined by between.

        A cell is the repr of the column's Python number (after conversion to dtype); with
        nonfinite, a float NaN or infinity is nonfinite[its repr] instead. Per block and
        column each distinct bit pattern is formatted once, so -0.0 keeps its sign, with
        the sep or tail after it attached; then one join lays the block's rows out.
        """
        cols = tuple(self.data.values())
        k = len(cols)
        n = len(cols[0]) if cols else 0
        # the last cell of a row also carries the next row's head
        ends = [sep] * (k - 1) + [tail + between + head]
        for start in range(0, n, _BLOCK_ROWS):
            cells = [head] * (1 + min(_BLOCK_ROWS, n - start) * k)
            for j, (col, end) in enumerate(zip(cols, ends), 1):
                values = np.asarray(col[start:start + _BLOCK_ROWS], dtype)
                _, first, inverse = np.unique(
                    values.view(f"u{values.itemsize}"), return_index=True, return_inverse=True
                )
                distinct = values[first]
                text = list(map(repr, distinct.tolist()))
                if nonfinite is not None:
                    for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
                        text[i] = nonfinite[text[i]]
                cells[j::k] = (np.array(text, dtype=object) + end)[inverse].tolist()
            cells[-1] = cells[-1][:len(cells[-1]) - len(between + head)]  # the block's last row
            yield "".join(cells)

    def to_csv(self, fh: IO[str]) -> None:
        fh.write(f"# experiment: {self.experiment}\n")
        fh.write(f"# scenario-hash: {self.scenario_hash}\n")
        fh.write(f"# version: irslab {__version__}\n")
        fh.write(",".join(self.columns) + "\n")
        for block in self._text_blocks("", ",", "\n"):
            fh.write(block)
        for comment in self.comments:
            fh.write(f"# {comment}\n")

    def to_json(self, fh: IO[str]) -> None:
        # rows sit at depth 2 of the document, their numbers at depth 3
        row, num = "\n    ", "\n      "
        blocks = self._text_blocks("[" + num, "," + num, row + "]", "," + row, float, _JSON_SPECIAL)
        _write_json(
            {
                "experiment": self.experiment,
                "scenario_hash": self.scenario_hash,
                "version": __version__,
                "comments": list(self.comments),
                "columns": list(self.columns),
                "rows": map(_JsonText, blocks),
            },
            fh,
        )

    def column(self, name: str) -> np.ndarray:
        return self.data[name].copy()


def _write_json(obj, fh: IO[str]) -> None:
    """Write obj exactly as `json.dump(obj, fh, indent=2)` does, then the newline that
    ends the document.

    An iterator is written as the list of its items, read one at a time, so a
    table streams its rows; a `_JsonText` item is written as it stands, so one
    item can carry a block of rows that `ResultTable.to_json` formatted. A list
    or tuple of finite floats is written by one join of float reprs, the text
    `json` gives each float; everything else follows `json`'s rules. `json.dump`
    takes its pure-Python encoder for any indent: on a per-element `export-config`
    dict it took 33 ms, this 9 ms (2-core Xeon).
    """
    for piece in _json_pieces(obj, "\n"):
        fh.write(piece)
    fh.write("\n")


def _json_pieces(obj, nl: str) -> Iterator[str]:
    """The `_write_json` text of obj in pieces; nl is a newline plus the current indent."""
    inner = nl + "  "
    if isinstance(obj, dict):
        sep, comma = "{" + inner, "," + inner
        for key, value in obj.items():
            yield sep + _json_key(key) + ": "
            yield from _json_pieces(value, inner)
            sep = comma
        yield "{}" if sep[0] == "{" else nl + "}"
    elif isinstance(obj, (list, tuple, Iterator)):
        floats = _json_floats(obj, "," + inner)
        if floats is not None:
            yield f"[{inner}{floats}{nl}]"
            return
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            yield sep
            if isinstance(item, _JsonText):
                yield item.text
            else:
                yield from _json_pieces(item, inner)
            sep = comma
        yield "[]" if sep[0] == "[" else nl + "]"
    else:
        yield json.dumps(obj)  # a scalar: no indent to write


def _json_floats(items, sep: str) -> str | None:
    """The reprs of items joined by sep if items is a non-empty list or tuple of finite
    floats, else None."""
    if not (isinstance(items, (list, tuple)) and items):
        return None
    try:
        text = sep.join(map(float.__repr__, items))
    except TypeError:  # an item that is not a float
        return None
    return None if "n" in text else text  # json writes nan and inf as NaN and Infinity


def _json_key(key) -> str:
    if not (isinstance(key, (str, int, float)) or key is None):
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


def _column_name(design: str) -> str:
    return design.replace("-", "_")


def _unique(designs: Sequence[str]) -> Sequence[str]:
    if len(set(designs)) < len(designs):
        raise ScenarioError(f"designs {list(designs)} name a design more than once")
    return designs


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
    named = {"f1": grid.frequency(0), "fc": grid.f_c, "fM": grid.frequency(grid.m_count - 1)}
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
    data = {"subcarrier_index": np.arange(grid.m_count), "frequency_ghz": grid.frequencies / 1e9}
    for name in _unique(designs):
        data[f"gain_{_column_name(name)}"] = gain_profile(scene, grid, build_design(scenario, name))
    return ResultTable("gain-profile", scenario.digest, data)


def run_beam_pattern(
    scenario: Scenario,
    design: str = "narrowband",
    frequencies: Sequence[str | float] = FREQUENCY_TOKENS,
) -> ResultTable:
    """Gain over the scenario's evaluation plane, long format, peaks appended."""
    config = build_design(scenario, design)
    plane = scenario.plane
    freqs = resolve_frequencies(scenario, frequencies)
    pattern = beam_pattern(scenario.scene, scenario.grid, config, freqs, plane)
    xs, ys = plane.x_coords(), plane.y_coords()
    data = {
        "frequency_ghz": np.repeat(np.array(freqs) / 1e9, xs.size * ys.size),
        "x_m": np.tile(np.repeat(xs, ys.size), len(freqs)),
        "y_m": np.tile(ys, len(freqs) * xs.size),
        "gain": pattern.gains.ravel(),
    }
    comments = tuple(
        "peak: frequency_ghz=%s x_m=%s y_m=%s gain=%s ix=%d iy=%d"
        % (repr(f / 1e9), repr(p.x), repr(p.y), repr(p.gain), p.ix, p.iy)
        for f, p in zip(freqs, pattern.peaks)
    )
    return ResultTable("beam-pattern", scenario.digest, data, comments)


def run_td_count_sweep(scenario: Scenario) -> ResultTable:
    """Edge-subcarrier gain of the DLDD design versus the delta-delay module count."""
    scene, grid = scenario.scene, scenario.grid
    if scene.layout.n_y != scene.layout.n_z:
        raise ScenarioError(
            "sweep.partition_sizes: td-count-sweep takes k x k partitions, "
            f"so it needs a square panel (irs.n_y == irs.n_z), not "
            f"{scene.layout.n_y}x{scene.layout.n_z}"
        )
    parts = [SubsurfacePartition.for_layout(scene.layout, k, k) for k in scenario.partition_sizes]
    data = {
        "k_t": np.array([td_module_count(part) for part in parts]),
        "edge_gain": np.array(
            [edge_gain(scene, grid, dldd_design(scene, grid, part)) for part in parts]
        ),
    }
    return ResultTable("td-count-sweep", scenario.digest, data)


def run_delay_range_sweep(scenario: Scenario) -> ResultTable:
    """Edge gain of DLDD and the per-element benchmark under a module-delay cap."""
    data = {"t_req_ps": np.array(scenario.t_req_seconds) * 1e12}
    for name in ("dldd", "per-element"):
        design = build_design(scenario, name)
        data[f"edge_gain_{_column_name(name)}"] = np.array([
            edge_gain(scenario.scene, scenario.grid, replace(design, delay_cap=t))
            for t in scenario.t_req_seconds
        ])
    return ResultTable("delay-range-sweep", scenario.digest, data)


def run_rate_sweep(scenario: Scenario, designs: Sequence[str] = DESIGN_NAMES) -> ResultTable:
    """Mean achievable rate per design versus BS transmit power."""
    scene, grid, noise = scenario.scene, scenario.grid, scenario.noise_density
    data = {"p_bs_dbm": np.array(scenario.p_bs_dbm)}
    for name in _unique(designs):
        gains = cascade_gain_magnitudes(scene, grid, build_design(scenario, name))
        data[f"rate_{_column_name(name)}"] = np.array(
            [rates_from_gain(gains, grid, watts, noise).mean() for watts in scenario.p_bs_watts]
        )
    return ResultTable("rate-sweep", scenario.digest, data)


def export_config(scenario: Scenario, design: str) -> dict:
    """Hardware-table export: the beamformer configuration as a JSON-ready dict."""
    config = build_design(scenario, design)
    out = config.as_dict()
    out["scenario_hash"] = scenario.digest
    out["version"] = __version__
    return out
