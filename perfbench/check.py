"""Output checker: structural checks plus an independent per-element NumPy oracle.

The oracle never calls irslab. It rebuilds the panel from the resolved
scenario values, takes each beamformer from the JSON that ``export-config``
wrote, and recomputes a seeded sample of output rows from the documented
formulas (docs/formats.md and the module docstrings):

* per element n the cascade carries the phase -2*pi*(f/c)*(r_bs,n - r_to,n);
* the reflection is theta_n - 2*pi*f_d*tau_n - 2*pi*(f - f_d)*tau'_n, with
  tau the design delays, tau' the delays after clamping every module at the
  cap, and f_d the design frequency;
* the normalized gain is |sum_n exp(j*phase_n)| / N.

The exported beamformers are themselves compared with an independent design
built from the first-order (Taylor) expansion of the element distances about
each sub-surface center. A value farther than TOL from the oracle fails the op.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .workloads import DESIGNS, HALF_WAVELENGTH, Op, ScenarioFile

TOL = 1e-9
C = 299792458.0
SAMPLE_ROWS = 12
BLOCK = 32  # subcarriers per oracle block: keeps the checker's arrays far below the program's

_HASH = re.compile(r"[0-9a-f]{64}")


class CheckError(Exception):
    """An output failed a structural check or disagreed with the oracle."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _suffix(design: str) -> str:
    return design.replace("-", "_")


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class Table:
    experiment: str
    scenario_hash: str
    columns: tuple[str, ...]
    rows: np.ndarray
    comments: tuple[str, ...]

    def col(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def read_table(path: str, fmt: str) -> Table:
    """Parse a CSV or JSON result written by one of the experiment runners."""
    text = Path(path).read_text()
    if fmt == "json":
        data = json.loads(text)
        rows = np.array(data["rows"], dtype=float).reshape(len(data["rows"]), len(data["columns"]))
        return Table(data["experiment"], data["scenario_hash"], tuple(data["columns"]),
                     rows, tuple(data["comments"]))
    head, comments, body = {}, [], []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if body or not sep or key in head:
                comments.append(line[2:])
            else:
                head[key] = value
        else:
            body.append(line)
    _require(body != [], "no column row")
    columns = tuple(body[0].split(","))
    rows = [[float(v) for v in row] for row in csv.reader(body[1:])]
    arr = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return Table(head.get("experiment", ""), head.get("scenario-hash", ""), columns, arr,
                 tuple(comments))


class Panel:
    """Element geometry and exact endpoint distances of one scenario."""

    def __init__(self, values: dict):
        self.values = values
        self.f_c = values["grid.f_c_ghz"] * 1e9
        d = values["irs.d_m"]
        self.d = C / self.f_c / 2.0 if d == HALF_WAVELENGTH else d
        self.n_y, self.n_z = values["irs.n_y"], values["irs.n_z"]
        self.n = self.n_y * self.n_z
        iy = np.repeat(np.arange(self.n_y), self.n_z)  # row-major: z varies fastest
        iz = np.tile(np.arange(self.n_z), self.n_y)
        self.iy, self.iz = iy, iz
        self.ey = (iy - (self.n_y - 1) / 2.0) * self.d
        self.ez = (iz - (self.n_z - 1) / 2.0) * self.d
        self.bs = tuple(values[f"bs.{a}_m"] for a in "xyz")
        self.user = tuple(values[f"user.{a}_m"] for a in "xyz")
        self.r_bs = self.dist(self.bs)
        self.r_user = self.dist(self.user)
        m_count = values["grid.subcarriers"]
        bw = values["grid.bandwidth_ghz"] * 1e9
        self.freqs = self.f_c + (bw / m_count) * (np.arange(m_count) - (m_count - 1) / 2.0)
        self.bandwidth = bw

    def dist(self, p) -> np.ndarray:
        return np.sqrt(p[0] ** 2 + (p[1] - self.ey) ** 2 + (p[2] - self.ez) ** 2)

    def design(self, name: str, k: Optional[int] = None) -> dict:
        """Independent beamformer in the export-config layout (see docs/formats.md)."""
        tau_n = -(self.r_bs - self.r_user) / C
        if name == "narrowband":
            theta = np.mod(2 * np.pi * self.f_c / C * (self.r_bs - self.r_user), 2 * np.pi)
            return {"design": name, "phases_rad": theta, "delay_network": {"type": "none"}}
        if name == "per-element":
            return {"design": name, "phases_rad": np.zeros(self.n),
                    "delay_network": {"type": "per-element", "tau_s": tau_n}}
        k_y = k or self.values["partition.k_y"]
        k_z = k or self.values["partition.k_z"]
        s = self.n_y // k_y
        step = s * self.d
        cy = (np.arange(k_y) - (k_y - 1) / 2.0) * step
        cz = (np.arange(k_z) - (k_z - 1) / 2.0) * step
        cy_n, cz_n = cy[self.iy // s], cz[self.iz // s]

        def center_dist(p):
            return np.sqrt(p[0] ** 2 + (p[1] - cy_n) ** 2 + (p[2] - cz_n) ** 2)

        def projection(p):
            # first-order term of |p - e_n| about the element's sub-surface center
            return ((self.ey - cy_n) * (p[1] - cy_n) + (self.ez - cz_n) * (p[2] - cz_n)) / center_dist(p)

        intra = projection(self.bs) - projection(self.user)
        theta = np.mod(-2 * np.pi * self.f_c / C * intra, 2 * np.pi)
        tau = (-(center_dist(self.bs) - center_dist(self.user)) / C).reshape(self.n_y, self.n_z)
        tau = tau[::s, ::s]  # one value per sub-surface, shape (k_y, k_z)
        return {
            "design": "dldd",
            "phases_rad": theta,
            "partition": {"k_y": k_y, "k_z": k_z, "s": s},
            "delay_network": {
                "type": "dldd",
                "first_layer_s": tau[1:, 0] - tau[:-1, 0],
                "second_layer_s": tau[:, 1:] - tau[:, :-1],
            },
        }


class Beamformer:
    """Phases and (clampable) element delays of one exported configuration."""

    def __init__(self, panel: Panel, table: dict):
        self.panel = panel
        self.theta = np.asarray(table["phases_rad"], dtype=float)
        self.f_design = float(table.get("design_frequency_hz", panel.f_c))
        self.net = table["delay_network"]
        self.s = table.get("partition", {}).get("s", 1)

    def delays(self, clamp: Optional[float] = None) -> np.ndarray:
        kind = self.net["type"]
        if kind == "none":
            return np.zeros(self.panel.n)
        if kind == "per-element":
            tau = np.asarray(self.net["tau_s"], dtype=float)
            return tau if clamp is None else np.sign(tau) * np.minimum(np.abs(tau), clamp)
        first = np.asarray(self.net["first_layer_s"], dtype=float)
        second = np.asarray(self.net["second_layer_s"], dtype=float).reshape(first.size + 1, -1)
        if clamp is not None:
            first = np.sign(first) * np.minimum(np.abs(first), clamp)
            second = np.sign(second) * np.minimum(np.abs(second), clamp)
        cum = (np.concatenate([[0.0], np.cumsum(first)])[:, None]
               + np.concatenate([np.zeros((first.size + 1, 1)), np.cumsum(second, axis=1)], axis=1))
        return cum[self.panel.iy // self.s, self.panel.iz // self.s]

    def sums(self, freqs, clamp=None, r_to=None, weight=None) -> np.ndarray:
        """|sum_n weight_n exp(j phase_n(f))| for each f, blocked over frequencies."""
        p = self.panel
        r_to = p.r_user if r_to is None else r_to
        tau, tau_c = self.delays(), self.delays(clamp)
        base = self.theta - 2 * np.pi * self.f_design * (tau - tau_c)
        slope = (p.r_bs - r_to) / C + tau_c
        freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
        out = np.empty(freqs.size)
        for start in range(0, freqs.size, BLOCK):
            f = freqs[start:start + BLOCK]
            phase = base[:, None] - 2 * np.pi * slope[:, None] * f[None, :]
            re, im = np.cos(phase), np.sin(phase)
            if weight is not None:
                re, im = re * weight[:, None], im * weight[:, None]
            out[start:start + BLOCK] = np.hypot(re.sum(axis=0), im.sum(axis=0))
        return out

    def gains(self, freqs, clamp=None, r_to=None) -> np.ndarray:
        return self.sums(freqs, clamp, r_to) / self.panel.n

    def gain_magnitudes(self) -> np.ndarray:
        """|amplitude-weighted cascaded gain| at every subcarrier."""
        p = self.panel
        coherent = self.sums(p.freqs, weight=1.0 / (p.r_bs * p.r_user))
        return (C / (4 * np.pi * p.freqs)) ** 2 * coherent


def _phase_close(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.exp(1j * a) - np.exp(1j * b)).max()) if a.size else 0.0


class Checker:
    """Checks each op's output; remembers the reference designs per scenario."""

    def __init__(self, seed: int):
        self.seed = seed
        self.panels: dict[str, Panel] = {}
        self.beamformers: dict[tuple[str, str], Beamformer] = {}
        self.hashes: dict[str, str] = {}
        self.magnitudes: dict[tuple[str, str], np.ndarray] = {}
        self.max_gain_err = 0.0

    def panel(self, scenario: ScenarioFile) -> Panel:
        if scenario.path not in self.panels:
            self.panels[scenario.path] = Panel(scenario.values)
        return self.panels[scenario.path]

    def _close(self, got, want, what: str, tol: float = TOL, gain: bool = True) -> None:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
        err = float(np.abs(got - want).max()) if got.size else 0.0
        if gain:
            self.max_gain_err = max(self.max_gain_err, err)
        _require(err <= tol, f"{what}: off by {err:.3e} (tolerance {tol:.0e})")

    def _hash(self, scenario: ScenarioFile, value: str) -> None:
        _require(bool(_HASH.fullmatch(value)), f"scenario hash {value!r} is not SHA-256 hex")
        known = self.hashes.setdefault(scenario.path, value)
        _require(known == value, f"scenario hash {value} != {known} seen before for {scenario.name}")
        others = {h for p, h in self.hashes.items() if p != scenario.path}
        _require(value not in others, f"scenario {scenario.name} shares its hash with another file")

    # --- export-config ---

    def check_export(self, scenario: ScenarioFile, design: str, path: str) -> None:
        """Check an export-config JSON and keep it as the reference beamformer."""
        data = json.loads(Path(path).read_text())
        panel = self.panel(scenario)
        self._hash(scenario, data.get("scenario_hash", ""))
        _require(data.get("design") == design, f"design {data.get('design')!r} != {design!r}")
        _require(data.get("design_frequency_hz") == panel.f_c, "design frequency is not f_c")
        theta = np.asarray(data["phases_rad"], dtype=float)
        _require(theta.shape == (panel.n,), f"{theta.size} phases for {panel.n} elements")
        _require(bool(np.all((theta >= 0) & (theta < 2 * np.pi))), "phases outside [0, 2*pi)")
        ref = panel.design(design)
        net, ref_net = data["delay_network"], ref["delay_network"]
        _require(net.get("type") == ref_net["type"], f"delay network {net.get('type')!r}")
        err = _phase_close(theta, ref["phases_rad"])
        _require(err <= TOL, f"{design} phases differ from the oracle design by {err:.3e}")
        scale = 2 * np.pi * panel.f_c  # compare delays as phase at f_c
        if design == "dldd":
            part = data.get("partition")
            _require(part == ref["partition"], f"partition {part} != {ref['partition']}")
            k_y, k_z = part["k_y"], part["k_z"]
            first = np.asarray(net["first_layer_s"], dtype=float)
            second = np.asarray(net["second_layer_s"], dtype=float)
            _require(first.shape == (k_y - 1,), "first layer must hold k_y - 1 deltas")
            _require(second.shape == (k_y, k_z - 1), "second layer must be k_y x (k_z - 1)")
            self._close(scale * first, scale * ref_net["first_layer_s"], "first layer", gain=False)
            self._close(scale * second, scale * ref_net["second_layer_s"], "second layer", gain=False)
            _require(net.get("switch_sign") in (-1, 1), "switch_sign must be +1 or -1")
        elif design == "per-element":
            tau = np.asarray(net["tau_s"], dtype=float)
            self._close(scale * tau, scale * ref_net["tau_s"], "per-element delays", gain=False)
        self.beamformers[(scenario.path, design)] = Beamformer(panel, data)

    def beamformer(self, scenario: ScenarioFile, design: str) -> Beamformer:
        bf = self.beamformers.get((scenario.path, design))
        _require(bf is not None, f"no valid export-config reference for {scenario.name}/{design}")
        return bf

    # --- experiment tables ---

    def check(self, op: Op) -> None:
        """Raise CheckError if the output of `op` is malformed or disagrees with the oracle."""
        if op.command == "export-config":
            self.check_export(op.scenario, op.designs[0], op.out)
            return
        table = read_table(op.out, op.fmt)
        _require(table.experiment == op.command, f"experiment {table.experiment!r}")
        self._hash(op.scenario, table.scenario_hash)
        _require(bool(np.all(np.isfinite(table.rows))), "non-finite value in the table")
        rng = random.Random(f"{self.seed}:{op.index}")
        getattr(self, "_" + op.command.replace("-", "_"))(op, table, self.panel(op.scenario), rng)

    def _gain_columns(self, table: Table) -> None:
        for name in table.columns:
            if "gain" in name:
                g = table.col(name)
                _require(bool(np.all((g >= 0) & (g <= 1))), f"{name} outside [0, 1]")

    def _sample(self, rng: random.Random, n: int, k: int = SAMPLE_ROWS) -> list[int]:
        return sorted({0, n - 1, *rng.sample(range(n), min(k, n))})

    def _gain_profile(self, op: Op, table: Table, panel: Panel, rng) -> None:
        cols = ("subcarrier_index", "frequency_ghz", *(f"gain_{_suffix(d)}" for d in op.designs))
        _require(table.columns == cols, f"columns {table.columns}")
        m = panel.freqs.size
        _require(table.rows.shape[0] == m, f"{table.rows.shape[0]} rows for {m} subcarriers")
        _require(bool(np.array_equal(table.col("subcarrier_index"), np.arange(m))), "subcarrier index")
        self._close(table.col("frequency_ghz"), panel.freqs / 1e9, "frequency_ghz", gain=False)
        self._gain_columns(table)
        if "per-element" in op.designs:
            self._close(table.col("gain_per_element"), np.ones(m), "per-element gain")
        rows = self._sample(rng, m)
        for d in op.designs:
            want = self.beamformer(op.scenario, d).gains(panel.freqs[rows])
            self._close(table.col(f"gain_{_suffix(d)}")[rows], want, f"gain_{_suffix(d)}")

    def _beam_pattern(self, op: Op, table: Table, panel: Panel, rng) -> None:
        _require(table.columns == ("frequency_ghz", "x_m", "y_m", "gain"), f"columns {table.columns}")
        v = panel.values
        xs = np.linspace(v["plane.x_min_m"], v["plane.x_max_m"], v["plane.points_x"])
        ys = np.linspace(v["plane.y_min_m"], v["plane.y_max_m"], v["plane.points_y"])
        named = {"f1": panel.freqs[0], "fc": panel.f_c, "fM": panel.freqs[-1]}
        freqs = np.array([named[t] if t in named else float(t) * 1e9 for t in op.frequencies])
        per_f = xs.size * ys.size
        _require(table.rows.shape[0] == freqs.size * per_f,
                 f"{table.rows.shape[0]} rows for {freqs.size}x{xs.size}x{ys.size}")
        self._close(table.col("frequency_ghz"), np.repeat(freqs / 1e9, per_f), "frequency_ghz", gain=False)
        self._close(table.col("x_m"), np.tile(np.repeat(xs, ys.size), freqs.size), "x_m", gain=False)
        self._close(table.col("y_m"), np.tile(ys, xs.size * freqs.size), "y_m", gain=False)
        self._gain_columns(table)
        gains = table.col("gain").reshape(freqs.size, per_f)
        peaks = [c for c in table.comments if c.startswith("peak:")]
        _require(len(peaks) == freqs.size, f"{len(peaks)} peak lines for {freqs.size} frequencies")
        for i, line in enumerate(peaks):
            peak = float(re.search(r"gain=(\S+)", line).group(1))
            self._close(peak, gains[i].max(), f"peak gain at frequency {i}", gain=False)
        bf = self.beamformer(op.scenario, op.designs[0])
        z = v["user.z_m"]
        for row in self._sample(rng, table.rows.shape[0]):
            f, x, y, g = table.rows[row]
            want = bf.gains(freqs[row // per_f], r_to=panel.dist((x, y, z)))[0]
            self._close(g, want, f"beam gain row {row}")

    def _td_count_sweep(self, op: Op, table: Table, panel: Panel, rng) -> None:
        _require(table.columns == ("k_t", "edge_gain"), f"columns {table.columns}")
        sizes = panel.values["sweep.partition_sizes"]
        _require(table.rows.shape[0] == len(sizes), f"{table.rows.shape[0]} rows for {len(sizes)} sizes")
        self._gain_columns(table)
        _require(bool(np.array_equal(table.col("k_t"), [k * k - 1 for k in sizes])), "k_t != k^2 - 1")
        edges = panel.freqs[[0, -1]]
        want = [Beamformer(panel, panel.design("dldd", k)).gains(edges).min() for k in sizes]
        self._close(table.col("edge_gain"), want, "td-count edge gain")

    def _delay_range_sweep(self, op: Op, table: Table, panel: Panel, rng) -> None:
        _require(table.columns == ("t_req_ps", "edge_gain_dldd", "edge_gain_per_element"),
                 f"columns {table.columns}")
        t_req = panel.values["sweep.t_req_ps"]
        _require(table.rows.shape[0] == len(t_req), f"{table.rows.shape[0]} rows for {len(t_req)} caps")
        self._close(table.col("t_req_ps"), t_req, "t_req_ps", gain=False)
        self._gain_columns(table)
        edges = panel.freqs[[0, -1]]
        for d in ("dldd", "per-element"):
            bf = self.beamformer(op.scenario, d)
            want = [bf.gains(edges, clamp=t * 1e-12).min() for t in t_req]
            self._close(table.col(f"edge_gain_{_suffix(d)}"), want, f"clamped edge gain {d}")

    def _rate_sweep(self, op: Op, table: Table, panel: Panel, rng) -> None:
        cols = ("p_bs_dbm", *(f"rate_{_suffix(d)}" for d in op.designs))
        _require(table.columns == cols, f"columns {table.columns}")
        powers = panel.values["rate.p_bs_dbm"]
        _require(table.rows.shape[0] == len(powers), f"{table.rows.shape[0]} rows for {len(powers)} powers")
        self._close(table.col("p_bs_dbm"), powers, "p_bs_dbm", gain=False)
        noise = _dbm_to_watts(panel.values["rate.noise_dbm_hz"]) * panel.bandwidth
        m = panel.freqs.size
        for d in op.designs:
            key = (op.scenario.path, d)
            if key not in self.magnitudes:
                self.magnitudes[key] = self.beamformer(op.scenario, d).gain_magnitudes()
            g2 = self.magnitudes[key] ** 2
            want = [np.log2(1.0 + (_dbm_to_watts(p) / m) * g2 / (noise / m)).mean() for p in powers]
            got = table.col(f"rate_{_suffix(d)}")
            scale = np.maximum(1.0, np.abs(want))
            self._close(got / scale, np.asarray(want) / scale, f"rate_{_suffix(d)}", gain=False)

