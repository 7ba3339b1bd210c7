"""The block-factorized cascade kernel against the direct per-subcarrier formula.

`metrics._cascade_sums` writes subcarrier i = b*B + k (B = ceil(sqrt(count)))
and multiplies an exact exp at the block start by an exact exp at the offset
k*df, reducing both tables with one matrix product. The direct formula below
builds the full (N, F) phasor array instead and sums it over the elements; it
is kept here as the reference.

Every consumer takes |sum|, so the sums are compared by magnitude: normalized
gains to an absolute DRIFT_TOL, weighted sums to DRIFT_TOL times the weight
mass sum |w_n| (near a null a relative bound would measure the conditioning of
the sum, which the direct formula shares, not the kernel). The largest drift
measured over 2,000 scenes was 3.2e-13 for the normalized gains, 3.2e-13 of the
weight mass for the weighted sums and 1.4e-13 for the edge gains: both formulas
round a phase 2*pi*f*delta of up to ~4e4 rad, whose last bit is ~7e-12 rad.
"""

import warnings
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab.beamforming import SignConsistencyWarning
from irslab.channel import element_distances
from irslab.experiments import DESIGN_NAMES, _edge_gains, build_design
from irslab.geometry import FrequencyGrid
from irslab.metrics import (
    _cascade_sums,
    cascade_gain_magnitudes,
    gain_profile,
    normalized_array_gain,
)
from irslab.scenario import parse_scenario

DRIFT_TOL = 1e-12

# primes, perfect squares, the edges of a block and the wideband workload's size
COUNTS = (1, 2, 3, 4, 5, 7, 16, 17, 49, 97, 1009, 1024, 2025, 2039, 2047, 2048)


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
    scene, grid = scenario.scene(), scenario.grid()
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
        sums = _cascade_sums(config, r_bs, r_user, grid.c, f0, df, count)
        assert sums.shape == (count,)
        want = np.abs(direct_sums(config, r_bs, r_user, grid.c, progression))
        np.testing.assert_allclose(np.abs(sums) / r_bs.size, want / r_bs.size,
                                   rtol=0, atol=DRIFT_TOL)
        sums = _cascade_sums(config, r_bs, r_user, grid.c, f0, df, count, weights)
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
        np.testing.assert_allclose(gain_profile(scene, grid, config).gains, want,
                                   rtol=0, atol=DRIFT_TOL)
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
        want = direct_gains(config, r_bs, r_user, grid.c, edges).min()
        got = _edge_gains(config, grid, r_bs, r_user)
        assert abs(got - want) <= DRIFT_TOL
