"""The threaded beam-pattern kernel against the per-frequency formula it replaced.

`metrics.multi_beam_pattern` splits the plane into chunks sized by a byte
budget, runs them on one thread per usable CPU and reduces each point's sum
with `np.einsum` instead of BLAS. For a frequency list f_p - d, f_p, f_p + d it
exponentiates twice per chunk instead of three times, building the outer
phasors from exact differences of the rounded phases fl(k r).

The reference below is the previous kernel: 512-point chunks, one complex
`exp` per frequency and a BLAS matrix-vector product per configuration. The
largest drift measured over 2,000 scenes was 1.1e-15, for symmetric lists and
for the rest alike. Taking the outer phasors as exp(j k_p r) * exp(-+j dk r)
instead, which rounds their phases differently, drifted by up to 2.5e-12 on
the same kind of scenes: a phase k*r of up to ~5e4 rad has a last bit of
~7e-12 rad, and off the focus a two-element gain moves by up to half of a
phase error.
"""

import os
import subprocess
import sys
import warnings
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
from irslab.geometry import element_positions
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
        weights[name] = np.exp(1j * (anchor - 2 * np.pi * freqs[:, None] * (r_bs / grid.c + tau)))
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
            phasors = 2j * np.pi * f / grid.c * r_p
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
    scene, grid = scenario.scene(), scenario.grid()
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
