"""The threaded beam-pattern kernel against the per-frequency formula it replaced.

`metrics.multi_beam_pattern` splits the plane into chunks sized by a byte
budget, runs them on one thread per usable CPU and reduces each point's sum
with `np.einsum` instead of BLAS. For a frequency list f_p - d, f_p, f_p + d it
exponentiates twice per chunk instead of three times, building the outer
phasors from exact differences of the rounded phases fl(k r). Each
exponential is table-driven (`metrics._cis`) while every phase of the plane
stays within `metrics._CIS_RANGE`, and libm's complex `exp` beyond it.

The reference below is the previous kernel: 512-point chunks, one complex
`exp` per frequency and a BLAS matrix-vector product per configuration. The
largest drift measured over 2,000 scenes was 1.1e-15, for symmetric lists and
for the rest alike. Taking the outer phasors as exp(j k_p r) * exp(-+j dk r)
instead, which rounds their phases differently, drifted by up to 2.5e-12 on
the same kind of scenes: a phase k*r of up to ~5e4 rad has a last bit of
~7e-12 rad, and off the focus a two-element gain moves by up to half of a
phase error. With the table-driven exponential the largest drift from the
reference was 1.4e-15 over 2,000 scenes, and on the default 41x41 plane, three
designs, 3.3e-15 for f1/fc/fM and 5.1e-15 for an asymmetric GHz list, as
before: it moved those gains by at most 2.2e-16.
"""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab import metrics
from irslab.beamforming import (
    SignConsistencyWarning,
    dldd_design,
    narrowband_design,
    per_element_td_design,
)
from irslab.channel import element_distances
from irslab.experiments import DESIGN_NAMES, FREQUENCY_TOKENS, build_design, resolve_frequencies
from irslab.geometry import SPEED_OF_LIGHT, element_positions
from irslab.metrics import EvaluationPlane, multi_beam_pattern
from irslab.scenario import parse_scenario

DRIFT_TOL = 1e-12
ROOT = Path(__file__).resolve().parent.parent


def reference_gains(scene, grid, configs, freqs, plane, chunk=512):
    """Reference: per-frequency exp and one BLAS matrix-vector product per configuration."""
    freqs = np.asarray(freqs, dtype=float)
    pos = element_positions(scene.layout)
    el_y, el_z = pos[:, 1], pos[:, 2]
    r_bs = element_distances(scene, "bs")
    weights = {}
    for name, config in configs.items():
        anchor, tau = config.anchor_and_delays()
        weights[name] = np.exp(1j * (anchor - 2 * np.pi * freqs[:, None] * (r_bs / SPEED_OF_LIGHT + tau)))
    px = np.repeat(plane.x_coords(), plane.n_y)
    py = np.tile(plane.y_coords(), plane.n_x)
    gains = {name: np.empty((freqs.size, px.size)) for name in configs}
    for start in range(0, px.size, chunk):
        sl = slice(start, min(start + chunk, px.size))
        r_p = np.sqrt(
            px[sl, None] ** 2 + (py[sl, None] - el_y[None, :]) ** 2
            + (plane.z - el_z[None, :]) ** 2
        )
        for i, f in enumerate(freqs):
            phasors = 2j * np.pi * f / SPEED_OF_LIGHT * r_p
            np.exp(phasors, out=phasors)
            for name in configs:
                gains[name][i, sl] = np.abs(phasors @ weights[name][i]) / r_bs.size
    return {
        name: np.minimum(g.reshape(freqs.size, plane.n_x, plane.n_y), 1.0)
        for name, g in gains.items()
    }


def symmetric(f_p, offset_hz, order):
    """f_p - d, f_p, f_p + d in the given order; whole-Hz values, so both offsets are exact."""
    triple = (f_p - offset_hz, f_p, f_p + offset_hz)
    return [triple[i] for i in order]


@st.composite
def cases(draw):
    """A scenario with up to 16x16 elements, a small plane and a frequency list.

    Symmetric lists reach up to 100 GHz either side of f_c: at 140 GHz that is
    past f_c / 2, where the kernel takes the direct path instead.
    """
    s = draw(st.integers(1, 4))
    k_y, k_z = draw(st.integers(1, 16 // s)), draw(st.integers(1, 16 // s))
    f_c = draw(st.sampled_from([140e9, 300e9]))
    values = {
        "bs.x_m": draw(st.floats(0.05, 3.0)),
        "bs.y_m": draw(st.floats(-2.0, 2.0)),
        "bs.z_m": draw(st.floats(-2.0, 2.0)),
        "user.x_m": draw(st.floats(0.05, 3.0)),
        "user.y_m": draw(st.floats(-2.0, 2.0)),
        "user.z_m": draw(st.floats(-2.0, 2.0)),
        "irs.n_y": k_y * s,
        "irs.n_z": k_z * s,
        "partition.k_y": k_y,
        "partition.k_z": k_z,
        "grid.f_c_ghz": f_c / 1e9,
        "grid.bandwidth_ghz": draw(st.floats(1.0, 30.0)),
        "sweep.partition_sizes": 1,
    }
    text = "\n".join(f"{key} = {value!r}" for key, value in values.items())
    x_min = draw(st.floats(0.05, 3.0))
    y_min = draw(st.floats(-3.0, 2.0))
    plane = EvaluationPlane(
        x_min, x_min + draw(st.floats(0.1, 2.0)), y_min, y_min + draw(st.floats(0.1, 2.0)),
        draw(st.floats(-2.0, 2.0)), draw(st.integers(1, 6)), draw(st.integers(1, 6)),
    )
    kind = draw(st.sampled_from(["symmetric", "descending", "asymmetric"]))
    if kind == "asymmetric":
        ghz = draw(st.lists(st.floats(f_c / 1e9 - 15, f_c / 1e9 + 15), min_size=1, max_size=4,
                            unique=True))
        freqs = [g * 1e9 for g in ghz]
    else:
        offset = draw(st.integers(1, 100_000)) * 1e6
        order = (2, 1, 0) if kind == "descending" else draw(st.permutations((0, 1, 2)))
        freqs = symmetric(f_c, offset, order)
    return text, plane, freqs


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_kernel_matches_per_frequency_formula(case):
    text, plane, freqs = case
    scenario = parse_scenario(text)
    scene, grid = scenario.scene, scenario.grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SignConsistencyWarning)
        configs = {name: build_design(scenario, name) for name in DESIGN_NAMES}
    got = multi_beam_pattern(scene, grid, configs, freqs, plane)
    want = reference_gains(scene, grid, configs, freqs, plane)
    for name in configs:
        np.testing.assert_allclose(got[name].gains, want[name], rtol=0, atol=DRIFT_TOL)


@pytest.mark.parametrize("freqs, triple", [
    ([299e9, 300e9, 301e9], (0, 1, 2)),
    ([301e9, 299e9, 300e9], (1, 2, 0)),
    ([299e9, 300e9, 301.5e9], None),
    ([299e9, 301e9], None),
    ([298e9, 299e9, 300e9, 301e9], None),
    ([100e9, 300e9, 500e9], None),
    ([151e9, 300e9, 449e9], (0, 1, 2)),
])
def test_symmetric_triple(freqs, triple):
    assert metrics._symmetric_triple(np.array(freqs)) == triple


@pytest.mark.parametrize("name", ["default.scn", "mirrored-y.scn"])
def test_default_tokens_are_symmetric_on_bundled_scenarios(name):
    scenario = parse_scenario((ROOT / "scenarios" / name).read_text())
    freqs = resolve_frequencies(scenario, FREQUENCY_TOKENS)
    assert metrics._symmetric_triple(np.array(freqs)) == (0, 1, 2)
    assert metrics._symmetric_triple(np.array(freqs[::-1])) == (2, 1, 0)


class TestSplitIndependence:
    """Gains are bit-identical however the plane is split and however many threads run."""

    @pytest.fixture(scope="class")
    def setup(self, small_scene, small_grid, small_partition):
        configs = {
            "narrowband": narrowband_design(small_scene, small_grid),
            "dldd": dldd_design(small_scene, small_grid, small_partition),
            "per-element": per_element_td_design(small_scene, small_grid),
        }
        plane = EvaluationPlane(1.5, 2.5, -2.0, -1.0, small_scene.user.z, 7, 9)
        return small_scene, small_grid, configs, plane

    def gains(self, setup, freqs):
        scene, grid, configs, plane = setup
        out = multi_beam_pattern(scene, grid, configs, freqs, plane)
        return np.stack([out[name].gains for name in configs])

    @pytest.mark.parametrize("freqs", [
        [285e9, 300e9, 315e9], [315e9, 285e9, 300e9], [287.3e9, 301.1e9, 312.9e9], [300e9],
    ])
    @pytest.mark.parametrize("workers, budget", [(1, 1), (3, None), (3, 1), (2, 150_000)])
    def test_bit_identical(self, setup, monkeypatch, freqs, workers, budget):
        monkeypatch.setattr(metrics, "_worker_count", lambda: 1)
        want = self.gains(setup, freqs)
        monkeypatch.setattr(metrics, "_worker_count", lambda: workers)
        if budget is not None:
            # 1 byte: one-point chunks; 150 kB: uneven chunks of a few points
            monkeypatch.setattr(metrics, "_PLANE_BYTES", budget)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.gains(setup, freqs)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    def test_worker_error_reaches_caller(self, setup, monkeypatch):
        def failing(r, *args):
            raise MemoryError(f"chunk of {r.shape[0]} points")

        monkeypatch.setattr(metrics, "_worker_count", lambda: 3)
        monkeypatch.setattr(metrics, "_PLANE_BYTES", 1)
        monkeypatch.setattr(metrics, "_plane_sums", failing)
        with pytest.raises(MemoryError, match="chunk of 1 points"):
            self.gains(setup, [300e9])


@pytest.mark.parametrize("frequencies", ["f1,fc,fM", "287.3,301.1,312.9"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, frequencies):
    """The plane kernel calls no BLAS, so its bytes hold at any BLAS thread count."""
    scn = tmp_path / "plane.scn"
    scn.write_text("plane.points_x = 11\nplane.points_y = 11\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"bp-{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "irslab.cli", "beam-pattern", "--scenario", str(scn),
             "--design", "dldd", "--frequencies", frequencies, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


STEP = 2 * np.pi / metrics._CIS_M
_rng = np.random.default_rng(3)
CIS_CASES = {
    # the symmetric path exponentiates delta = theta_lo - theta_p < 0
    "negative": -_rng.uniform(0.0, 100.0, 10_000),
    "half-step ties": (np.arange(-2000, 2000) + 0.5) * STEP,
    "far ties": (_rng.integers(-(2**29), 2**29, 10_000) + 0.5) * STEP,
    "random": _rng.uniform(-metrics._CIS_RANGE, metrics._CIS_RANGE, 100_000),
    "edge": np.array([
        metrics._CIS_RANGE, -metrics._CIS_RANGE, np.nextafter(metrics._CIS_RANGE, 0.0),
        metrics._CIS_RANGE - STEP / 2, metrics._CIS_RANGE - STEP,
    ]),
}


def cis(theta):
    theta = np.array(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    metrics._cis(theta.copy(), out, np.empty_like(theta), np.empty_like(theta))
    return out


@pytest.mark.parametrize("theta", CIS_CASES.values(), ids=CIS_CASES.keys())
def test_cis_matches_complex_exp(theta):
    np.testing.assert_allclose(cis(theta), np.exp(1j * theta), rtol=0, atol=1e-15)


def test_cis_of_zero_is_one():
    assert np.array_equal(cis([0.0, -0.0]), [1.0, 1.0])


def test_cis_constants():
    # C1 has at most 24 significant bits, so n*C1 is exact for n <= 2**29
    frac = float.hex(metrics._CIS_C1).split(".")[1].split("p")[0].rstrip("0")
    last = int(frac[-1], 16)
    assert 1 + 4 * len(frac) - ((last & -last).bit_length() - 1) <= 24
    for n in (2**29 - 1, 2**29):
        assert Fraction(n * metrics._CIS_C1) == n * Fraction(metrics._CIS_C1)
    table = metrics._CIS_TABLE
    quarter = metrics._CIS_M // 4
    assert table.size == metrics._CIS_M and table[0] == 1
    assert np.array_equal(table[quarter:], 1j * table[:-quarter])


@pytest.mark.parametrize("x_min, x_max, y, z, freqs, path", [
    (40.0, 45.0, 1.0, -0.9, [1000e9], "_cis_exp"),
    (40.0, 45.0, 1.0, -0.9, [990e9, 1000e9, 1010e9], "_cis_exp"),
    (30.0, 31.3, 1.0, -0.9, [285e9, 300e9, 315e9], "_cis_exp"),
    # largest phase 2.0551e5 rad, just inside _CIS_RANGE = 2.0589e5
    (30.0, 31.1, 1.0, -0.9, [285e9, 300e9, 315e9], "_cis"),
    (30.0, 31.1, 1.0, -0.9, [315e9, 290e9], "_cis"),
    # out of range only through the far y corners, or through the plane's height
    (30.5, 31.0, 6.0, -0.9, [285e9, 300e9, 315e9], "_cis_exp"),
    (30.5, 31.0, 1.0, 6.0, [285e9, 300e9, 315e9], "_cis_exp"),
])
def test_range_guard(small_scene, small_grid, small_partition, monkeypatch,
                     x_min, x_max, y, z, freqs, path):
    calls = set()
    for name in ("_cis", "_cis_exp"):
        def spy(*args, name=name, fn=getattr(metrics, name)):
            calls.add(name)
            fn(*args)
        monkeypatch.setattr(metrics, name, spy)
    configs = {
        "narrowband": narrowband_design(small_scene, small_grid),
        "dldd": dldd_design(small_scene, small_grid, small_partition),
    }
    plane = EvaluationPlane(x_min, x_max, -y, y, z, 5, 4)
    got = multi_beam_pattern(small_scene, small_grid, configs, freqs, plane)
    assert calls == {path}
    want = reference_gains(small_scene, small_grid, configs, freqs, plane)
    for name in configs:
        np.testing.assert_allclose(got[name].gains, want[name], rtol=0, atol=DRIFT_TOL)
