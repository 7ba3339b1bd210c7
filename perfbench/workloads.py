"""Seeded workload generator: scenario files and the fixed op list of each workload.

irslab receives only the generated ``.scn`` files and the argv of each op.
The same seed gives the same files and the same ops. Every scenario list
starts with the two bundled scenarios (``scenarios/default.scn`` and
``scenarios/mirrored-y.scn``) and then adds seeded variants that move the
endpoints, the DLDD partition and the bandwidth. Sizes (panel, plane,
subcarriers, sweep lists) are fixed per workload, so the cost of an op does
not depend on the seed; only its values do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DESIGNS = ("narrowband", "dldd", "per-element")
SYMMETRIC_TOKENS = ("f1", "fc", "fM")
HALF_WAVELENGTH = "half-wavelength"

# The documented defaults of every scenario key (docs/formats.md), kept here
# so that the checker resolves a scenario file without calling irslab.
DEFAULTS: dict = {
    "bs.x_m": 0.0,
    "bs.y_m": 1.5,
    "bs.z_m": -1.5,
    "user.x_m": 2.0,
    "user.y_m": -4.0,
    "user.z_m": -2.0,
    "irs.n_y": 100,
    "irs.n_z": 100,
    "irs.d_m": HALF_WAVELENGTH,
    "partition.k_y": 10,
    "partition.k_z": 10,
    "grid.f_c_ghz": 300.0,
    "grid.bandwidth_ghz": 30.0,
    "grid.subcarriers": 128,
    "plane.x_min_m": 0.5,
    "plane.x_max_m": 4.0,
    "plane.y_min_m": -6.0,
    "plane.y_max_m": 2.0,
    "plane.points_x": 201,
    "plane.points_y": 201,
    "sweep.t_req_ps": tuple(float(t) for t in range(21)),
    "sweep.partition_sizes": (1, 2, 4, 5, 10, 20, 25, 50),
    "rate.p_bs_dbm": tuple(float(p) for p in range(30, 95, 5)),
    "rate.noise_dbm_hz": -174.0,
}

def parse_value(key: str, text: str):
    """Parse one scenario value with the type its key has in DEFAULTS."""
    default = DEFAULTS[key]
    if isinstance(default, tuple):
        return tuple(type(default[0])(part) for part in text.split(",") if part.strip())
    if key == "irs.d_m":
        return text if text == HALF_WAVELENGTH else float(text)
    return type(default)(text)


def parse_overrides(text: str) -> dict:
    """The key/value pairs a scenario file sets (comments and blanks dropped)."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = parse_value(key.strip(), value.strip())
    return out


def render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


@dataclass(frozen=True)
class ScenarioFile:
    """A scenario file on disk and its fully resolved values (file units)."""

    name: str
    path: str
    values: dict


@dataclass(frozen=True)
class Op:
    """One ``irslab.cli.main`` call and what the checker needs to know about it."""

    index: int
    command: str
    scenario: ScenarioFile
    out: str
    fmt: str = "csv"
    designs: tuple[str, ...] = DESIGNS
    frequencies: tuple[str, ...] = ()
    argv: tuple[str, ...] = ()

    @property
    def writes_table(self) -> bool:
        return self.command != "export-config"


def make_op(index, command, scenario, out, fmt="csv", designs=DESIGNS, frequencies=()) -> Op:
    out = str(out)
    argv = [command, "--scenario", scenario.path, "--out", out]
    if command == "export-config":
        argv += ["--design", designs[0]]
    else:
        argv += ["--format", fmt]
    if command == "beam-pattern":
        argv += ["--design", designs[0], "--frequencies", ",".join(frequencies)]
    return Op(index, command, scenario, out, fmt, tuple(designs), tuple(frequencies), tuple(argv))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple[ScenarioFile, ...]
    ops: tuple[Op, ...]

    @property
    def asymmetric_share(self) -> float:
        """Share of beam-pattern ops that pass an explicit asymmetric GHz list."""
        beams = [op for op in self.ops if op.command == "beam-pattern"]
        if not beams:
            return 0.0
        return sum(op.frequencies != SYMMETRIC_TOKENS for op in beams) / len(beams)


# Per workload: sizes that override every scenario (bundled ones included),
# the number of seeded variants, and why the workload exists.
SPECS = {
    "beam-plane": dict(
        overrides={"plane.points_x": 41, "plane.points_y": 41},
        variants=1,
        why="beam-pattern ops on a 41x41 plane (4 chunks of 512 points): the "
        "metrics plane kernel does almost all the work",
    ),
    "sweeps": dict(
        overrides={},
        variants=2,
        why="the four sweeps and export-config at default sizes: per-call "
        "overhead, repeated distances, design builds; no plane kernel",
    ),
    "wideband-profile": dict(
        overrides={"grid.subcarriers": 2048},
        variants=2,
        why="gain-profile and rate-sweep as JSON at 2048 subcarriers: one "
        "unchunked (N, M) phasor array, memory-bound",
    ),
}
WORKLOADS = tuple(SPECS)


def _derive(text: str, overrides: dict) -> str:
    """Bundled scenario text with the override keys replaced."""
    kept = [
        raw for raw in text.splitlines()
        if raw.split("#", 1)[0].partition("=")[0].strip() not in overrides
    ]
    kept += [f"{key} = {render_value(value)}" for key, value in overrides.items()]
    return "\n".join(kept) + "\n"


def _variant_values(rng: random.Random, overrides: dict) -> dict:
    values = dict(DEFAULTS)
    k = rng.choice((5, 10, 20))  # divides the 100x100 panel into square sub-surfaces
    values.update({
        "bs.x_m": round(rng.uniform(0.2, 2.0), 3),
        "bs.y_m": round(rng.uniform(-3.0, 3.0), 3),
        "bs.z_m": round(rng.uniform(-2.5, 1.0), 3),
        "user.x_m": round(rng.uniform(1.0, 3.5), 3),
        "user.y_m": round(rng.uniform(-5.0, 1.0), 3),
        "user.z_m": round(rng.uniform(-3.0, 0.5), 3),
        "partition.k_y": k,
        "partition.k_z": k,
        "grid.bandwidth_ghz": round(rng.uniform(20.0, 40.0), 2),
    })
    values.update(overrides)
    return values


def _asymmetric_ghz(rng: random.Random, f_c_ghz: float) -> tuple[str, ...]:
    lo = round(f_c_ghz - rng.uniform(4.0, 15.0), 2)
    mid = round(f_c_ghz + rng.uniform(-3.0, 3.0), 2)
    hi = round(f_c_ghz + rng.uniform(4.0, 15.0), 2)
    if abs((hi - f_c_ghz) - (f_c_ghz - lo)) < 0.05:
        hi = round(hi + 0.37, 2)
    return tuple(repr(v) for v in (lo, mid, hi))


def generate(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Write the workload's scenario files under `workdir` and return its ops."""
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    scn_dir, out_dir = Path(workdir) / "scn", Path(workdir) / "out"
    scn_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    overrides = spec["overrides"]

    scenarios = []
    for bundled in ("default", "mirrored-y"):
        source = Path(root) / "scenarios" / f"{bundled}.scn"
        text = source.read_text()
        values = {**DEFAULTS, **parse_overrides(text), **overrides}
        if overrides:
            path = scn_dir / f"{bundled}.scn"
            path.write_text(_derive(text, overrides))
        else:
            path = source
        scenarios.append(ScenarioFile(bundled, str(path), values))
    for i in range(spec["variants"]):
        values = _variant_values(rng, overrides)
        path = scn_dir / f"variant{i}.scn"
        path.write_text(
            f"# {name} variant {i}, seed {seed}\n"
            + "".join(f"{k} = {render_value(v)}\n" for k, v in values.items())
        )
        scenarios.append(ScenarioFile(f"variant{i}", str(path), values))

    ops: list[Op] = []

    def add(command, scenario, fmt="csv", **kw):
        ext = "json" if command == "export-config" else fmt
        out = out_dir / f"op{len(ops):03d}-{command}.{ext}"
        ops.append(make_op(len(ops), command, scenario, out, fmt=fmt, **kw))

    for i, scn in enumerate(scenarios):
        if name == "beam-plane":
            for j, design in enumerate(DESIGNS):
                # one op in three per scenario and per design gets an asymmetric list
                freqs = (_asymmetric_ghz(rng, scn.values["grid.f_c_ghz"])
                         if (i + j) % 3 == 0 else SYMMETRIC_TOKENS)
                add("beam-pattern", scn, designs=(design,), frequencies=freqs)
        elif name == "sweeps":
            for command in ("gain-profile", "td-count-sweep", "delay-range-sweep", "rate-sweep"):
                add(command, scn)
            for design in DESIGNS:
                add("export-config", scn, designs=(design,))
        else:
            add("gain-profile", scn, fmt="json")
            add("rate-sweep", scn, fmt="json")
    return Workload(name, spec["why"], tuple(scenarios), tuple(ops))
