"""The cascade kernel's two branches against the direct per-subcarrier formula.

`metrics._cascade_sums` computes S_i = sum_n c_n exp(2j*pi*i*u_n) for i < count,
with c_n = w_n exp(j*(anchor_n - 2*pi*f0*delta_n)) and u_n = -df*delta_n.
Below `metrics._NUFFT_FROM` subcarriers it evaluates the formula itself: the
(count, N) phasors exp(j*(anchor_n - 2*pi*f_i*delta_n)), one table exponential
each, summed over the elements in element order by `np.einsum`. From
`_NUFFT_FROM` on, it takes the same sums by a type-1 non-uniform FFT
(`metrics._nufft`): the modes centred on count//2 by one more phasor per
element, the c_n spread onto a periodic grid of G >= max(2*count, 2w) points
with an "exponential of semicircle" kernel of width w, one FFT, and a division
by the DFT of the kernel's samples. The direct formula below builds the full
(N, F) phasor array with libm's exp instead and sums it over the elements; it
is the reference for both branches, and `COUNTS` holds counts on both sides of
the crossover.

Every consumer takes |sum|, so the sums are compared by magnitude: normalized
gains to an absolute DRIFT_TOL, weighted sums to DRIFT_TOL times the weight
mass sum |w_n| (near a null a relative bound would measure the conditioning of
the sum, which the direct formula shares, not the kernel). Both branches and
the reference round a phase 2*pi*f*delta of up to ~4e4 rad, whose last bit is
~7e-12 rad: the drift is the reference's rounding as much as the kernel's. The
former block-factorized path (`libm_cascade_sums`, a block-start and an offset
table of powers built by doubling and reduced by one BLAS product) drifted
from the reference by at most 6.5e-13 over 3 x 2,000 random scenes, and
`_nufft` by 3.3e-13. Against sums whose phases k*u_n are reduced by their
nearest integer, `_nufft` alone stays within 5e-16 of sum |c_n| on 10^4
scattered points and 2.7e-15 on 10^4 points at u = 0, and within 1.8e-14 on the
default scenario's DLDD design: its points crowd into 3 grid cells, and near the
band edge the w = 16 kernel's truncation error is 1.3e-14 of sum |c_n| there
even with the kernel taken in long double.
`libm_cascade_sums` stays here as the reference for the change that replaced it
by the direct branch, and `bincount_nufft`, the spreading by one
`np.bincount` per grid offset that sorting the points by grid cell replaced, as
the reference for that change.
"""

import functools
import json
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
    _nufft,
    cascade_gain_magnitudes,
    edge_gain,
    gain_profile,
    normalized_array_gain,
)
from irslab.scenario import parse_scenario

DRIFT_TOL = 1e-12
ROOT = Path(__file__).resolve().parent.parent

# every count up to 8, where the non-uniform FFT's grid floor acts, both sides of the
# crossover to it, primes, perfect squares, the former crossover at 257, the wideband
# workload's size and a band past it
COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, _NUFFT_FROM - 1, _NUFFT_FROM, 16, 17, 49, 97, 128, 256,
          257, 1009, 1024, 2025, 2039, 2047, 2048, 16384)


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


def explicit_sums(c, u, count, block=64):
    """Reference for `_nufft`: sum_n c_n exp(2j*pi*k*u_n) over the centred modes k, one
    exp per term, with k*u_n rounded once and reduced by its nearest integer; `block`
    modes at a time, each summed pairwise along the elements."""
    k = np.arange(count) - count // 2
    sums = np.empty(count, dtype=complex)
    for i in range(0, count, block):
        x = np.outer(k[i:i + block], u)
        x -= np.rint(x)
        sums[i:i + block] = (np.exp(2j * np.pi * x) * c).sum(axis=1)
    return sums


@functools.cache
def default_dldd_inputs():
    """`_nufft`'s c and u for the DLDD design on the default scenario at 2048 subcarriers,
    as `_cascade_sums` forms them: 10^4 points in 3 grid cells."""
    count = 2048
    scenario = parse_scenario((ROOT / "scenarios" / "default.scn").read_text())
    scene = scenario.scene
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    anchor, tau = build_design(scenario, "dldd").anchor_and_delays()
    delta = (r_bs - r_user) / SPEED_OF_LIGHT + tau
    grid = replace(scenario.grid, m_count=count)
    f0, df = grid.frequency(0), grid.bandwidth / count
    c = np.exp(1j * (anchor - 2 * np.pi * (f0 + count // 2 * df) * delta))
    return c, -df * delta


def nufft_cases():
    rng = np.random.default_rng(19)
    c = rng.normal(size=200) + 1j * rng.normal(size=200)
    # u*G lands just below a multiple of G, so the kernel wraps at the grid's edge
    below = np.nextafter(rng.integers(-3, 4, 200).astype(float), -np.inf)
    return {
        "random": (c, rng.uniform(-3.0, 3.0, 200)),
        "on-grid-nodes": (c, rng.integers(-2048, 2048, 200) / 512),  # at G >= 512
        "just-below-an-integer": (c, below),
        "negative": (c, -rng.uniform(0.0, 0.1, 200)),
        "all-zero": (c, np.zeros(200)),  # as for the uncapped per-element design
        "single-element": (c[:1], np.array([0.3])),
        # 10^4 points in one grid cell and in three: the wideband designs' inputs
        "clustered-at-zero": (np.ones(10**4, dtype=complex), np.zeros(10**4)),
        "clustered-default-dldd": default_dldd_inputs(),
    }


# the clustered cases' bounds, of sum |c_n|: rounding alone at u = 0, where every point
# is a grid node (one `bincount` chain per offset gave 2.8e-13); with the DLDD design it
# adds to the kernel's truncation error, 1.3e-14 (see the module docstring)
CLUSTERED_TOL = {"clustered-at-zero": 1e-14, "clustered-default-dldd": 2e-14}


# every count up to 8, where the grid floor 2w acts, both sides of the crossover, the
# former crossover at 257 and a band on both sides of a power of two
NUFFT_COUNTS = sorted({*range(1, 9), _NUFFT_FROM - 1, _NUFFT_FROM, 257, 1023, 1024})


@pytest.mark.parametrize("count", NUFFT_COUNTS)
@pytest.mark.parametrize("case", sorted(nufft_cases()))
def test_nufft_matches_the_explicit_sum(case, count):
    c, u = nufft_cases()[case]
    got = _nufft(c, u, count)
    assert got.shape == (count,)
    tol = CLUSTERED_TOL.get(case, DRIFT_TOL)
    assert np.abs(got - explicit_sums(c, u, count)).max() <= tol * np.abs(c).sum()


def test_nufft_kernel_offsets_rounded_past_its_edge_stay_finite():
    """t = u*G = -1020 + ulp: t - w/2 rounds to the integer -1028, so the first grid point
    lies a rounding beyond the kernel's support (z < -1), where 1 - z^2 < 0."""
    c, u = np.ones(1, dtype=complex), np.array([np.nextafter(-1020.0, 0) / 2048])
    got = _nufft(c, u, 1024)  # G = 2048
    assert np.abs(got - explicit_sums(c, u, 1024)).max() <= DRIFT_TOL


def bincount_nufft(c, u, count):
    """`_nufft` as it was before sorting the points by grid cell: each offset's kernel values
    added onto the grid by two `np.bincount` calls in element order (on the same grid)."""

    def semicircle(z):
        return np.exp(metrics._NUFFT_BETA * (np.sqrt(1.0 - z * z) - 1.0))

    w = metrics._NUFFT_W
    g = max(1 << (2 * count - 1).bit_length(), 2 * w)
    t = u * g
    start = np.ceil(t - w / 2)
    offset, first = (start - t) * (2 / w), start.astype(np.int64)
    grid = np.zeros(g, dtype=complex)
    for j in range(w):
        phi = semicircle(offset + j * (2 / w))
        idx = (first + j) & (g - 1)
        grid.real += np.bincount(idx, phi * c.real, g)
        grid.imag += np.bincount(idx, phi * c.imag, g)
    samples = np.zeros(g)
    m = np.arange(-(w // 2), w // 2 + 1)
    samples[m] = semicircle(m * (2 / w))
    modes = (np.arange(count) - count // 2) & (g - 1)
    return (np.fft.ifft(grid) * g)[modes] / np.fft.fft(samples).real[modes]


@pytest.mark.parametrize("count", NUFFT_COUNTS)
@pytest.mark.parametrize("case", sorted(nufft_cases()))
def test_nufft_matches_the_bincount_spreading(case, count):
    c, u = nufft_cases()[case]
    drift = np.abs(_nufft(c, u, count) - bincount_nufft(c, u, count)).max()
    assert drift <= DRIFT_TOL * np.abs(c).sum()


@pytest.mark.parametrize("count", [_NUFFT_FROM, 128, 257, 1024, 2048, 16384])
@pytest.mark.parametrize("name", ["default.scn", "mirrored-y.scn"])
def test_nufft_matches_the_bincount_spreading_on_the_bundled_scenarios(monkeypatch, name, count):
    """Every design, uncapped and with a 9 ps cap, with both weightings of `_cascade_sums`."""
    scenario = parse_scenario((ROOT / "scenarios" / name).read_text())
    scene, grid = scenario.scene, replace(scenario.grid, m_count=count)
    configs = [build_design(scenario, design) for design in DESIGN_NAMES]
    configs += [replace(config, delay_cap=9e-12) for config in configs[1:]]
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    f0, df = grid.frequency(0), grid.bandwidth / count
    for config in configs:
        for weights in (1.0, 1.0 / (r_bs * r_user)):
            got = _cascade_sums(config, r_bs, r_user, f0, df, count, weights)
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "_nufft", bincount_nufft)
                want = _cascade_sums(config, r_bs, r_user, f0, df, count, weights)
            mass = np.abs(np.broadcast_to(weights, r_bs.shape)).sum()
            assert np.abs(got - want).max() <= DRIFT_TOL * mass


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


def libm_cascade_sums(config, r_bs, r_user, f0, df, count, weights=1.0):
    """`_cascade_sums` as it was below 257 subcarriers: a block-start and an offset table of
    powers, built by doubling with libm's exp, reduced by one BLAS matrix product. The
    reference for the direct branch that replaced it, and, before that, for the table exp."""

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


def libm_kernel_sums(*args):
    """`_cascade_sums` with libm's exp (`metrics._cis_exp`) in place of the table exp."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_cis", metrics._cis_exp)
        return _cascade_sums(*args)


def each_kernel_call(configs, r_bs, r_user, grid):
    """The arguments of `_cascade_sums` for both weightings of every config, and the weight
    mass of each call."""
    f0, df, count = grid.frequencies[0], grid.bandwidth / grid.m_count, grid.m_count
    for config in configs:
        for weights in (1.0, 1.0 / (r_bs * r_user)):
            mass = np.abs(np.broadcast_to(weights, r_bs.shape)).sum()
            yield (config, r_bs, r_user, f0, df, count, weights), mass


def assert_matches_libm_kernel(configs, r_bs, r_user, grid, exact=False):
    """The kernel against its libm form: within DRIFT_TOL of the weight mass, or bit for bit."""
    for args, mass in each_kernel_call(configs, r_bs, r_user, grid):
        got, want = _cascade_sums(*args), libm_kernel_sums(*args)
        if exact:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= DRIFT_TOL * mass


def assert_matches_doubling_formula(configs, r_bs, r_user, grid):
    """The kernel against the former doubling path, by magnitude: the direct branch rounds a
    phase of up to ~1.3e4 rad once per subcarrier, so the complex sums differ by up to
    1.2e-12 of the weight mass (400 random scenes) and their magnitudes by 4e-14."""
    for args, mass in each_kernel_call(configs, r_bs, r_user, grid):
        got, want = np.abs(_cascade_sums(*args)), np.abs(libm_cascade_sums(*args))
        assert np.abs(got - want).max() <= DRIFT_TOL * mass


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_kernel_matches_the_doubling_formula(case):
    scene, grid, r_bs, r_user, configs = scene_designs(*case)
    assert_matches_doubling_formula(configs, r_bs, r_user, grid)


@pytest.mark.parametrize("count", [1, 2, _NUFFT_FROM - 1, _NUFFT_FROM, 128, 256])
@pytest.mark.parametrize("name", ["default.scn", "mirrored-y.scn"])
def test_kernel_matches_the_doubling_formula_on_the_bundled_scenarios(name, count):
    """Every design, uncapped and with a 9 ps cap, at the counts the doubling path ran."""
    scenario = parse_scenario((ROOT / "scenarios" / name).read_text())
    scene, grid = scenario.scene, replace(scenario.grid, m_count=count)
    configs = [build_design(scenario, design) for design in DESIGN_NAMES]
    configs += [replace(config, delay_cap=9e-12) for config in configs[1:]]
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    assert_matches_doubling_formula(configs, r_bs, r_user, grid)


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
    for cis in (metrics._cis, metrics._cis_exp):
        monkeypatch.setattr(metrics, "_cis", cis)
        for command in ("gain-profile", "rate-sweep", "td-count-sweep", "delay-range-sweep"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--scenario", str(scn), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
    assert outputs[:4] == outputs[4:]


# runs `cli.main` on each argument list of the JSON list in argv[1], in one process
CLI_CHILD = ("import json, sys; from irslab.cli import main; "
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")


@pytest.mark.parametrize("command", ["gain-profile", "rate-sweep", "td-count-sweep",
                                     "delay-range-sweep"])
def test_wideband_bytes_do_not_depend_on_blas_threads(tmp_path, command):
    """No branch of the cascade kernel calls BLAS, so the bytes hold at 1 and 2 BLAS threads
    and under OpenBLAS's Sandybridge kernels (each set in the child process only): at the
    default 128 subcarriers, which the former doubling path reduced by BLAS, and at 2048.
    The sweeps' edge gains take 2 subcarriers whatever the grid, so they run once."""
    counts = (128, 2048) if command in ("gain-profile", "rate-sweep") else (128,)
    runs = []
    for count in counts:
        scn = tmp_path / f"band-{count}.scn"
        scn.write_text(f"grid.subcarriers = {count}\n")
        runs.append([command, "--scenario", str(scn), "--out", str(tmp_path / f"{count}.csv")])
    pythonpath = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    outputs = []
    for setting in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                    {"OPENBLAS_CORETYPE": "Sandybridge"}):
        subprocess.run(
            [sys.executable, "-c", CLI_CHILD, json.dumps(runs)],
            env={**os.environ, **setting, "PYTHONPATH": pythonpath},
            check=True, capture_output=True, timeout=300,
        )
        outputs.append([(tmp_path / f"{count}.csv").read_bytes() for count in counts])
    assert outputs[0] == outputs[1] == outputs[2]
