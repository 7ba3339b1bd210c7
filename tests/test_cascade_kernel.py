"""The cascade kernel's two paths against the direct per-subcarrier formula.

`metrics._cascade_sums` computes S_i = sum_n c_n exp(2j*pi*i*u_n) for i < count,
with c_n = w_n exp(j*(anchor_n - 2*pi*f0*delta_n)) and u_n = -df*delta_n.
Below `metrics._NUFFT_FROM` subcarriers it writes subcarrier i = b*B + k
(B = ceil(sqrt(count))) as c_n Z_n^b z_n^k, with z_n = exp(2j*pi*u_n) and
Z_n = z_n^B, and reduces a row table of c_n Z_n^b and an offset table of z_n^k
with one matrix product. `metrics._powers` builds each table by doubling:
entry i is a product of popcount(i) exact exponentials at exact multiples
2^e * step, so no error builds up along a table. From `_NUFFT_FROM` on, it
takes the same sums by a type-1 non-uniform FFT (`metrics._nufft`): the modes
centred on count//2 by one more phasor per element, the c_n spread onto a
periodic grid with an "exponential of semicircle" kernel, one FFT, and a
division by the DFT of the kernel's samples. The direct formula below builds
the full (N, F) phasor array instead and sums it over the elements; it is kept
here as the reference for both paths, and `COUNTS` holds counts on both sides
of the crossover.

Every consumer takes |sum|, so the sums are compared by magnitude: normalized
gains to an absolute DRIFT_TOL, weighted sums to DRIFT_TOL times the weight
mass sum |w_n| (near a null a relative bound would measure the conditioning of
the sum, which the direct formula shares, not the kernel). For the doubling
path, the largest drift measured over 2,000 scenes, for three seeds, was
2.9e-13, 6.3e-13 and 2.6e-13 for the normalized gains (6.3e-13 of the weight
mass for the weighted sums) and 2.0e-13 for the edge gains; the kernel with
exact exp at every block start and offset drifted by 2.8e-13, 6.5e-13 and
3.7e-13 on the same scenes. Both paths and the reference round a phase
2*pi*f*delta of up to ~4e4 rad, whose last bit is ~7e-12 rad: the drift is the
reference's rounding as much as the kernel's. With the non-uniform FFT from
257 subcarriers on, three more seeds of 2,000 scenes (42-43 % of them at or
above the crossover) drifted by at most 2.7e-13, 1.9e-13 and 1.7e-13 on the
doubling path and 2.4e-13, 2.2e-13 and 3.3e-13 on the FFT path. Against sums whose
phases k*u_n are reduced by their nearest integer, `_nufft` alone stays within
~4e-15 of sum |c_n|.
"""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab import metrics
from irslab.beamforming import SignConsistencyWarning
from irslab.channel import element_distances
from irslab.cli import main
from irslab.experiments import DESIGN_NAMES, build_design
from irslab.geometry import SPEED_OF_LIGHT, FrequencyGrid
from irslab.metrics import (
    _CIS_RANGE,
    _NUFFT_FROM,
    _cascade_sums,
    _cis_for,
    _nufft,
    _powers,
    cascade_gain_magnitudes,
    edge_gain,
    gain_profile,
    normalized_array_gain,
)
from irslab.scenario import parse_scenario

DRIFT_TOL = 1e-12
ROOT = Path(__file__).resolve().parent.parent

# primes, perfect squares, the edges of a block, both sides of the crossover to the
# non-uniform FFT, the wideband workload's size and a band past it
COUNTS = (1, 2, 3, 4, 5, 7, 16, 17, 49, 97, _NUFFT_FROM - 1, _NUFFT_FROM, 1009, 1024, 2025,
          2039, 2047, 2048, 16384)


def direct_sums(config, r_bs, r_user, c, freqs, weights=1.0):
    """Reference: the (N, F) phasor array summed over the elements."""
    anchor, tau = config.anchor_and_delays()
    delta = (r_bs - r_user) / c + tau
    phasors = 1j * (anchor[:, None] - 2 * np.pi * np.outer(delta, freqs))
    np.exp(phasors, out=phasors)
    return (phasors * np.reshape(weights, (-1, 1))).sum(axis=0)


def direct_gains(config, r_bs, r_user, c, freqs):
    return np.minimum(np.abs(direct_sums(config, r_bs, r_user, c, freqs)) / r_bs.size, 1.0)


@st.composite
def cases(draw):
    """A scenario text with up to 16x16 elements, a subcarrier count and a delay cap."""
    s = draw(st.integers(1, 4))
    k_y, k_z = draw(st.integers(1, 16 // s)), draw(st.integers(1, 16 // s))
    count = draw(st.one_of(st.sampled_from(COUNTS), st.integers(1, 2048)))
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
        "grid.f_c_ghz": draw(st.sampled_from([140.0, 300.0])),
        "grid.bandwidth_ghz": draw(st.floats(1.0, 30.0)),
        "sweep.partition_sizes": 1,
    }
    text = "\n".join(f"{key} = {value!r}" for key, value in values.items())
    cap = draw(st.one_of(st.none(), st.floats(0.0, 20e-12)))
    return text, count, cap


def scene_designs(text, count, cap):
    """Scene, a `count`-subcarrier grid, both element distances and the three designs."""
    scenario = parse_scenario(text)
    scene, grid = scenario.scene, scenario.grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SignConsistencyWarning)
        configs = [replace(build_design(scenario, name), delay_cap=cap) for name in DESIGN_NAMES]
    grid = FrequencyGrid(grid.f_c, grid.bandwidth, count)
    return scene, grid, element_distances(scene, "bs"), element_distances(scene, "user"), configs


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_kernel_matches_direct_formula_on_the_progression(case):
    scene, grid, r_bs, r_user, configs = scene_designs(*case)
    f0, df, count = grid.frequencies[0], grid.bandwidth / grid.m_count, grid.m_count
    progression = f0 + df * np.arange(count)
    weights = 1.0 / (r_bs * r_user)
    for config in configs:
        sums = _cascade_sums(config, r_bs, r_user, f0, df, count)
        assert sums.shape == (count,)
        want = np.abs(direct_sums(config, r_bs, r_user, grid.c, progression))
        np.testing.assert_allclose(np.abs(sums) / r_bs.size, want / r_bs.size,
                                   rtol=0, atol=DRIFT_TOL)
        sums = _cascade_sums(config, r_bs, r_user, f0, df, count, weights)
        want = np.abs(direct_sums(config, r_bs, r_user, grid.c, progression, weights))
        np.testing.assert_allclose(np.abs(sums), want, rtol=0,
                                   atol=DRIFT_TOL * np.abs(weights).sum())


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_metrics_match_direct_formula_on_the_grid(case):
    scene, grid, r_bs, r_user, configs = scene_designs(*case)
    freqs = grid.frequencies
    weights = 1.0 / (r_bs * r_user)
    for config in configs:
        want = direct_gains(config, r_bs, r_user, grid.c, freqs)
        np.testing.assert_allclose(gain_profile(scene, grid, config), want, rtol=0, atol=DRIFT_TOL)
        got = normalized_array_gain(scene, grid, config, float(freqs[-1]))
        np.testing.assert_allclose(got, want[-1], rtol=0, atol=DRIFT_TOL)
        amplitude = (grid.c / (4 * np.pi * freqs)) ** 2
        want = np.abs(direct_sums(config, r_bs, r_user, grid.c, freqs, weights))
        np.testing.assert_allclose(cascade_gain_magnitudes(scene, grid, config) / amplitude,
                                   want, rtol=0, atol=DRIFT_TOL * np.abs(weights).sum())


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_edge_gains_match_direct_formula(case):
    scene, grid, r_bs, r_user, configs = scene_designs(*case)
    edges = grid.frequencies[[0, -1]]
    for config in configs:
        if grid.m_count < 2:
            with pytest.raises(ValueError, match="needs at least two subcarriers"):
                edge_gain(scene, grid, config)
            continue
        want = direct_gains(config, r_bs, r_user, grid.c, edges).min()
        got = edge_gain(scene, grid, config)
        assert abs(got - want) <= DRIFT_TOL


def explicit_sums(c, u, count):
    """Reference for `_nufft`: sum_n c_n exp(2j*pi*k*u_n) over the centred modes k, one
    exp per term, with k*u_n rounded once and reduced by its nearest integer."""
    x = np.outer(u, np.arange(count) - count // 2)
    x -= np.rint(x)
    return (c[:, None] * np.exp(2j * np.pi * x)).sum(axis=0)


def nufft_cases():
    rng = np.random.default_rng(19)
    c = rng.normal(size=200) + 1j * rng.normal(size=200)
    # u*G lands just below a multiple of G, so the kernel wraps at the grid's edge
    below = np.nextafter(rng.integers(-3, 4, 200).astype(float), -np.inf)
    return {
        "random": (c, rng.uniform(-3.0, 3.0, 200)),
        "on-grid-nodes": (c, rng.integers(-2048, 2048, 200) / 512),  # G >= 512 here
        "just-below-an-integer": (c, below),
        "negative": (c, -rng.uniform(0.0, 0.1, 200)),
        "all-zero": (c, np.zeros(200)),  # as for the uncapped per-element design
        "single-element": (c[:1], np.array([0.3])),
    }


@pytest.mark.parametrize("count", [_NUFFT_FROM, 1023, 1024])
@pytest.mark.parametrize("case", sorted(nufft_cases()))
def test_nufft_matches_the_explicit_sum(case, count):
    c, u = nufft_cases()[case]
    got = _nufft(c, u, count)
    assert got.shape == (count,)
    assert np.abs(got - explicit_sums(c, u, count)).max() <= DRIFT_TOL * np.abs(c).sum()


@pytest.mark.parametrize("name", ["default.scn", "mirrored-y.scn"])
def test_swapping_bs_and_user_keeps_the_wideband_metrics(name):
    """Metamorphic: the cascade is reciprocal, so trading the endpoints and rebuilding every
    design moves neither gains nor gain magnitudes, here on the non-uniform FFT path."""
    scenario = parse_scenario((ROOT / "scenarios" / name).read_text())
    scene, grid = scenario.scene, replace(scenario.grid, m_count=2048)
    runs = []
    for scene in (scene, replace(scene, bs=scene.user, user=scene.bs)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SignConsistencyWarning)
            configs = [build_design(replace(scenario, scene=scene, grid=grid), design)
                       for design in DESIGN_NAMES]
        configs += [replace(config, delay_cap=9e-12) for config in configs[1:]]
        runs.append([(gain_profile(scene, grid, config),
                      cascade_gain_magnitudes(scene, grid, config)) for config in configs])
    for (gains, mags), (swapped_gains, swapped_mags) in zip(*runs):
        np.testing.assert_allclose(swapped_gains, gains, rtol=0, atol=DRIFT_TOL)
        np.testing.assert_allclose(swapped_mags, mags, rtol=0, atol=DRIFT_TOL * mags.max())


def exp_by(cis, theta):
    """exp(1j*theta) by `metrics._cis` or `metrics._cis_exp`."""
    out = np.empty(theta.shape, dtype=complex)
    cis(theta.copy(), out, np.empty(theta.shape), np.empty(theta.shape))
    return out


def libm_cascade_sums(config, r_bs, r_user, f0, df, count, weights=1.0):
    """`_cascade_sums` as it was with libm's exp for every doubling step and the anchor
    phasor, before both came from the table exp: the reference for that change."""

    def powers(step, n):
        out = np.empty((n, *np.shape(step)), dtype=complex)
        out[0] = 1.0
        m = 1
        while m < n:
            np.multiply(out[:min(m, n - m)], np.exp(1j * (m * step)), out=out[m:2 * m])
            m *= 2
        return out

    anchor, tau = config.anchor_and_delays()
    delta = (r_bs - r_user) / SPEED_OF_LIGHT + tau
    block = int(np.ceil(np.sqrt(count)))
    rows = powers(-2 * np.pi * block * df * delta, -(-count // block))
    rows *= weights * np.exp(1j * (anchor - 2 * np.pi * f0 * delta))
    return (rows @ powers(-2 * np.pi * df * delta, block).T).ravel()[:count]


def assert_matches_libm_kernel(configs, r_bs, r_user, grid, exact=False):
    """Both weightings of every config: within DRIFT_TOL of the weight mass, or bit for bit."""
    f0, df, count = grid.frequencies[0], grid.bandwidth / grid.m_count, grid.m_count
    for config in configs:
        for weights in (1.0, 1.0 / (r_bs * r_user)):
            got = _cascade_sums(config, r_bs, r_user, f0, df, count, weights)
            want = libm_cascade_sums(config, r_bs, r_user, f0, df, count, weights)
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                mass = np.abs(np.broadcast_to(weights, r_bs.shape)).sum()
                assert np.abs(got - want).max() <= DRIFT_TOL * mass


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_table_exp_matches_the_libm_kernel(case):
    scene, grid, r_bs, r_user, configs = scene_designs(*case)
    assert_matches_libm_kernel(configs, r_bs, r_user, grid)


@pytest.mark.parametrize("count", [128, 2048])
@pytest.mark.parametrize("name", ["default.scn", "mirrored-y.scn"])
def test_table_exp_matches_the_libm_kernel_on_the_bundled_scenarios(name, count):
    scenario = parse_scenario((ROOT / "scenarios" / name).read_text())
    scene, grid = scenario.scene, replace(scenario.grid, m_count=count)
    configs = [build_design(scenario, design) for design in DESIGN_NAMES]
    configs += [replace(config, delay_cap=9e-12) for config in configs[1:]]
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    assert_matches_libm_kernel(configs, r_bs, r_user, grid)


def test_phases_beyond_the_table_range_take_libm_exp(tmp_path, monkeypatch):
    """A user 40 m out puts phases beyond _CIS_RANGE: the output bytes are the libm kernel's."""
    text = ("user.x_m = 40.0\nirs.n_y = 20\nirs.n_z = 20\npartition.k_y = 4\npartition.k_z = 4\n"
            "sweep.partition_sizes = 1,2,4,5\n")
    scenario = parse_scenario(text)
    scene, grid = scenario.scene, scenario.grid
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    assert 2 * np.pi * grid.frequencies[0] * np.abs(r_bs - r_user).max() / grid.c > _CIS_RANGE
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SignConsistencyWarning)
        configs = [build_design(scenario, design) for design in DESIGN_NAMES]
    assert_matches_libm_kernel(configs, r_bs, r_user, grid, exact=True)
    scn = tmp_path / "far.scn"
    scn.write_text(text)
    outputs = []
    for kernel in (_cascade_sums, libm_cascade_sums):
        monkeypatch.setattr(metrics, "_cascade_sums", kernel)
        for command in ("gain-profile", "rate-sweep", "td-count-sweep", "delay-range-sweep"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--scenario", str(scn), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
    assert outputs[:4] == outputs[4:]


# Every step, and every phase m*step, that the kernel passes to `_powers` is at most
# 2*pi*(f_M - f_1)*|delta_n|: 1.8e3 rad on the bundled scenarios. The steps are float32
# values, so i*step is exact in float64 and the reference rounds nothing but its exp.
STEP_MAX = 1e4
STEPS = np.concatenate([
    [0.0, STEP_MAX, -STEP_MAX, 1e-9],
    np.random.default_rng(5).uniform(-STEP_MAX, STEP_MAX, 1000),
]).astype(np.float32).astype(float)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 32, 33, 46, 64, 65, 1024, 1025])
def test_powers_match_exp_entry_by_entry(count):
    # the table exp while every phase m*step is within its range, as `_cascade_sums` picks
    cis = _cis_for((1 << max((count - 1).bit_length() - 1, 0)) * STEP_MAX)
    got = _powers(STEPS, count, cis)
    assert got.shape == (count, STEPS.size)
    assert np.array_equal(got[0], np.ones(STEPS.size))
    for k in range((count - 1).bit_length()):
        # a power of two is one exact exp, bit for bit
        assert np.array_equal(got[2**k], exp_by(cis, 2**k * STEPS))
    want = np.exp(1j * (np.arange(count)[:, None] * STEPS))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("command", ["gain-profile", "rate-sweep"])
def test_wideband_bytes_do_not_depend_on_blas_threads(tmp_path, command):
    """At 2048 subcarriers the kernel is the non-uniform FFT, which uses no BLAS; its bytes
    hold at 1 and 2 BLAS threads."""
    scn = tmp_path / "wide.scn"
    scn.write_text("grid.subcarriers = 2048\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{command}-{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "irslab.cli", command, "--scenario", str(scn),
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
