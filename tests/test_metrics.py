import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irslab.beamforming import (
    BeamformerConfig,
    PhaseShiftConfig,
    dldd_design,
    narrowband_design,
    per_element_td_design,
)
from irslab.experiments import DESIGN_NAMES, build_design
from irslab.geometry import FrequencyGrid, Point3
from irslab.metrics import (
    BeamPattern,
    EvaluationPlane,
    GainProfile,
    achievable_rate,
    beam_pattern,
    cascade_gain_magnitudes,
    edge_gain,
    gain_profile,
    multi_beam_pattern,
    normalized_array_gain,
)
from irslab.scenario import parse_scenario


def phase_config(theta, f_c=300e9):
    return BeamformerConfig(
        design="narrowband",
        phases=PhaseShiftConfig(np.mod(theta, 2 * np.pi)),
        delay_network=None,
        design_frequency=f_c,
    )


class TestNormalizedArrayGain:
    def test_bounded_by_one(self, small_scene, small_grid):
        rng = np.random.default_rng(3)
        for _ in range(5):
            config = phase_config(rng.uniform(0, 2 * np.pi, 400))
            for f in (small_grid.frequencies[0], small_grid.f_c):
                g = normalized_array_gain(small_scene, small_grid, config, float(f))
                assert 0.0 <= g <= 1.0 + 1e-9

    def test_unaligned_phases_below_one(self, small_scene, small_grid):
        config = phase_config(np.zeros(400))
        assert normalized_array_gain(small_scene, small_grid, config, small_grid.f_c) < 1.0

    def test_global_rotation_invariance(self, small_scene, small_grid):
        rng = np.random.default_rng(11)
        theta = rng.uniform(0, 2 * np.pi, 400)
        a = normalized_array_gain(small_scene, small_grid, phase_config(theta), small_grid.f_c)
        b = normalized_array_gain(
            small_scene, small_grid, phase_config(theta + 0.777), small_grid.f_c
        )
        assert a == pytest.approx(b, abs=1e-12)

    @given(
        theta=arrays(np.float64, 25, elements=st.floats(0, 6.28)),
        f_rel=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality_property(self, small_grid, theta, f_rel):
        from irslab.geometry import IrsLayout, Scene, SubsurfacePartition

        layout = IrsLayout(5, 5, 0.0005)
        part = SubsurfacePartition.for_layout(layout, 1, 1)
        scene = Scene(Point3(0.5, 0.4, -0.3), Point3(1.5, -1.0, -0.5), layout, part)
        f = small_grid.f_c * (1 + f_rel / 10)
        g = normalized_array_gain(scene, small_grid, phase_config(theta), f)
        assert 0.0 <= g <= 1.0 + 1e-9


class TestGainProfile:
    def test_per_element_profile_is_flat_unity(self, small_scene, small_grid):
        config = per_element_td_design(small_scene, small_grid)
        profile = gain_profile(small_scene, small_grid, config)
        assert np.all(np.abs(profile.gains - 1.0) < 1e-9)

    def test_narrowband_peaks_at_center(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        profile = gain_profile(small_scene, small_grid, config)
        mid = profile.gains[small_grid.m_count // 2 - 1 : small_grid.m_count // 2 + 1]
        assert mid.min() > profile.gains[0]
        assert mid.min() > profile.gains[-1]

    def test_beam_split_worsens_with_bandwidth(self, small_scene):
        edges = []
        for bw in (0.3e9, 3e9, 30e9):
            grid = FrequencyGrid(f_c=300e9, bandwidth=bw, m_count=16)
            config = narrowband_design(small_scene, grid)
            edges.append(edge_gain(gain_profile(small_scene, grid, config)))
        assert edges[0] > edges[1] > edges[2]
        assert edges[0] > 0.99

    def test_profile_matches_pointwise_gain(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        profile = gain_profile(small_scene, small_grid, config)
        for m in (0, 7, 15):
            f = float(small_grid.frequencies[m])
            assert profile.gains[m] == pytest.approx(
                normalized_array_gain(small_scene, small_grid, config, f), abs=1e-12
            )

    def test_invalid_gain_profile_rejected(self):
        with pytest.raises(ValueError):
            GainProfile(frequencies=np.array([1.0, 2.0]), gains=np.array([0.5, 1.5]))

    def test_nan_gain_profile_rejected(self):
        with pytest.raises(ValueError):
            GainProfile(frequencies=np.array([1.0, 2.0]), gains=np.array([0.5, np.nan]))


class TestEdgeGain:
    def test_flat_profile(self):
        p = GainProfile(frequencies=np.array([1e9, 2e9]), gains=np.array([1.0, 1.0]))
        assert edge_gain(p) == 1.0

    def test_min_of_extremes(self):
        p = GainProfile(
            frequencies=np.array([1e9, 2e9, 3e9]), gains=np.array([0.3, 0.9, 0.5])
        )
        assert edge_gain(p) == pytest.approx(0.3)

    def test_needs_two_subcarriers(self):
        p = GainProfile(frequencies=np.array([1e9]), gains=np.array([1.0]))
        with pytest.raises(ValueError):
            edge_gain(p)


class TestEvaluationPlane:
    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError):
            EvaluationPlane(x_min=1, x_max=1, y_min=0, y_max=1, z=0, n_x=5, n_y=5)
        with pytest.raises(ValueError):
            EvaluationPlane(x_min=2, x_max=1, y_min=0, y_max=1, z=0, n_x=5, n_y=5)
        with pytest.raises(ValueError):
            EvaluationPlane(x_min=1, x_max=2, y_min=0, y_max=1, z=0, n_x=0, n_y=5)

    def test_plane_crossing_panel_rejected(self):
        with pytest.raises(ValueError):
            EvaluationPlane(x_min=-1, x_max=1, y_min=0, y_max=1, z=0, n_x=5, n_y=5)

    def test_single_point_plane_allowed(self):
        plane = EvaluationPlane(x_min=2, x_max=2, y_min=-1, y_max=-1, z=0, n_x=1, n_y=1)
        assert plane.x_coords().tolist() == [2.0]


class TestBeamPattern:
    def test_nan_gains_rejected(self):
        plane = EvaluationPlane(x_min=1, x_max=2, y_min=0, y_max=1, z=0, n_x=1, n_y=2)
        with pytest.raises(ValueError):
            BeamPattern(plane, np.array([3e11]), np.array([[[0.5, np.nan]]]), peaks=())

    def test_value_at_user_matches_gain_profile(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        user = small_scene.user
        plane = EvaluationPlane(
            x_min=user.x, x_max=user.x, y_min=user.y, y_max=user.y, z=user.z, n_x=1, n_y=1
        )
        profile = gain_profile(small_scene, small_grid, config)
        for m in (0, 15):
            f = float(small_grid.frequencies[m])
            pattern = beam_pattern(small_scene, small_grid, config, [f], plane)
            assert pattern.gains[0, 0, 0] == pytest.approx(profile.gains[m], abs=1e-12)

    def test_focus_peak_lands_on_user(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        user = small_scene.user
        plane = EvaluationPlane(
            x_min=user.x - 0.5, x_max=user.x + 0.5,
            y_min=user.y - 0.5, y_max=user.y + 0.5,
            z=user.z, n_x=21, n_y=21,
        )
        pattern = beam_pattern(small_scene, small_grid, config, [small_grid.f_c], plane)
        peak = pattern.peaks[0]
        assert abs(peak.x - user.x) <= 0.05 + 1e-12
        assert abs(peak.y - user.y) <= 0.05 + 1e-12
        assert peak.gain > 0.9

    def test_multi_design_matches_single(self, small_scene, small_grid):
        configs = {
            "narrowband": narrowband_design(small_scene, small_grid),
            "per-element": per_element_td_design(small_scene, small_grid),
        }
        user = small_scene.user
        plane = EvaluationPlane(
            x_min=user.x - 0.2, x_max=user.x + 0.2,
            y_min=user.y - 0.2, y_max=user.y + 0.2,
            z=user.z, n_x=5, n_y=5,
        )
        freqs = [float(small_grid.frequencies[0]), small_grid.f_c]
        combined = multi_beam_pattern(small_scene, small_grid, configs, freqs, plane)
        for name, config in configs.items():
            single = beam_pattern(small_scene, small_grid, config, freqs, plane)
            assert np.allclose(combined[name].gains, single.gains, atol=1e-12)

    def test_gains_bounded(self, small_scene, small_grid):
        config = per_element_td_design(small_scene, small_grid)
        user = small_scene.user
        plane = EvaluationPlane(
            x_min=user.x - 0.1, x_max=user.x + 0.1, y_min=user.y - 0.1, y_max=user.y + 0.1,
            z=user.z, n_x=7, n_y=7,
        )
        pattern = beam_pattern(small_scene, small_grid, config, [small_grid.f_c], plane)
        assert np.all(pattern.gains <= 1.0) and np.all(pattern.gains >= 0.0)


class TestAchievableRate:
    def test_rates_increase_with_power(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        noise = 10 ** ((-174 - 30) / 10)
        means = [
            achievable_rate(small_scene, small_grid, config, p, noise).mean_rate
            for p in (1e-3, 1e-1, 10.0, 1e3)
        ]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_vanishing_power_vanishing_rate(self, small_scene, small_grid):
        config = per_element_td_design(small_scene, small_grid)
        noise = 10 ** ((-174 - 30) / 10)
        result = achievable_rate(small_scene, small_grid, config, 1e-30, noise)
        assert result.mean_rate < 1e-6
        assert np.all(result.rates >= 0)

    def test_design_ordering(self, small_scene, small_grid):
        noise = 10 ** ((-174 - 30) / 10)
        p = 1.0
        r_nb = achievable_rate(
            small_scene, small_grid, narrowband_design(small_scene, small_grid), p, noise
        ).mean_rate
        r_dl = achievable_rate(
            small_scene, small_grid, dldd_design(small_scene, small_grid), p, noise
        ).mean_rate
        r_pe = achievable_rate(
            small_scene, small_grid, per_element_td_design(small_scene, small_grid), p, noise
        ).mean_rate
        assert r_pe >= r_dl - 1e-12
        assert r_dl >= r_nb - 1e-12

    def test_argument_validation(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        with pytest.raises(ValueError):
            achievable_rate(small_scene, small_grid, config, 0.0, 1e-20)
        with pytest.raises(ValueError):
            achievable_rate(small_scene, small_grid, config, 1.0, 0.0)


class TestClampedGain:
    def test_clamp_zero_reduces_per_element_to_narrowband(self, small_scene, small_grid):
        pe = per_element_td_design(small_scene, small_grid)
        nb = narrowband_design(small_scene, small_grid)
        f = float(small_grid.frequencies[0])
        a = normalized_array_gain(small_scene, small_grid, replace(pe, delay_cap=0.0), f)
        b = normalized_array_gain(small_scene, small_grid, nb, f)
        assert a == pytest.approx(b, abs=1e-9)

    def test_clamp_monotone_in_small_delta_regime(self, small_scene, small_grid):
        # module deltas here are all below ~4 ps, so releasing the clamp
        # moves the edge gain monotonically toward the unclamped value
        config = dldd_design(small_scene, small_grid)
        f = float(small_grid.frequencies[0])
        caps = np.linspace(0, 5e-12, 11)
        gains = [
            normalized_array_gain(small_scene, small_grid, replace(config, delay_cap=float(t)), f)
            for t in caps
        ]
        assert all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))


class TestWidebandMemory:
    def test_per_subcarrier_metrics_hold_no_element_by_subcarrier_array(self):
        # one (N, F) complex phasor array at N = 10^4, F = 2048 would alone take 328 MB;
        # the block-factorized kernel peaked at 21.4 MiB here, and at 14.8 MiB with its
        # tables built by doubling, which hold no table-sized phase array
        scenario = parse_scenario("grid.subcarriers = 2048")
        scene, grid = scenario.scene, scenario.grid
        configs = [build_design(scenario, name) for name in DESIGN_NAMES]
        tracemalloc.start()
        try:
            for config in configs:
                gain_profile(scene, grid, config)
                cascade_gain_magnitudes(scene, grid, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestBeamPatternMemory:
    def test_plane_kernel_holds_one_byte_budget(self):
        # with the former fixed 512-point chunks this call peaked at 197 MiB (N = 10^4),
        # with a 32 MiB budget at 34 MiB, and with the 8 MiB one at 9.6 MiB
        scenario = parse_scenario("plane.points_x = 41\nplane.points_y = 41")
        scene, grid = scenario.scene, scenario.grid
        configs = {name: build_design(scenario, name) for name in DESIGN_NAMES}
        freqs = [float(grid.frequencies[0]), grid.f_c, float(grid.frequencies[-1])]
        tracemalloc.start()
        try:
            multi_beam_pattern(scene, grid, configs, freqs, scenario.plane)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
