import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irslab import metrics
from irslab.beamforming import (
    BeamformerConfig,
    PerElementDelayConfig,
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
    achievable_rate,
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

    @pytest.mark.parametrize("f", [0.0, -1e9, float("nan"), float("inf")])
    def test_rejects_a_non_physical_frequency_by_name(self, small_scene, small_grid, f):
        config = phase_config(np.zeros(400))
        with pytest.raises(ValueError, match=rf"^frequency f={f!r} Hz must be finite and above 0"):
            normalized_array_gain(small_scene, small_grid, config, f)

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
        gains = gain_profile(small_scene, small_grid, config)
        assert gains.shape == (small_grid.m_count,)
        assert np.all(np.abs(gains - 1.0) < 1e-9)

    def test_narrowband_peaks_at_center(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        gains = gain_profile(small_scene, small_grid, config)
        mid = gains[small_grid.m_count // 2 - 1 : small_grid.m_count // 2 + 1]
        assert mid.min() > gains[0]
        assert mid.min() > gains[-1]

    def test_beam_split_worsens_with_bandwidth(self, small_scene):
        edges = []
        for bw in (0.3e9, 3e9, 30e9):
            grid = FrequencyGrid(f_c=300e9, bandwidth=bw, m_count=16)
            config = narrowband_design(small_scene, grid)
            edges.append(edge_gain(small_scene, grid, config))
        assert edges[0] > edges[1] > edges[2]
        assert edges[0] > 0.99

    def test_profile_matches_pointwise_gain(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        gains = gain_profile(small_scene, small_grid, config)
        for m in (0, 7, 15):
            f = float(small_grid.frequencies[m])
            assert gains[m] == pytest.approx(
                normalized_array_gain(small_scene, small_grid, config, f), abs=1e-12
            )

    def test_sums_above_the_element_count_clamp_to_one(self, small_scene, small_grid, monkeypatch):
        n = small_scene.layout.n_elements
        sums = np.array([1.5 * n, 0.5j * n])
        monkeypatch.setattr(metrics, "_cascade_sums", lambda *args: sums)
        grid = replace(small_grid, m_count=2)
        config = narrowband_design(small_scene, grid)
        assert gain_profile(small_scene, grid, config).tolist() == [1.0, 0.5]
        assert edge_gain(small_scene, grid, config) == 0.5


class TestEdgeGain:
    def test_flat_profile(self, small_scene, small_grid):
        config = per_element_td_design(small_scene, small_grid)
        assert edge_gain(small_scene, small_grid, config) == pytest.approx(1.0, abs=1e-9)

    def test_min_of_extremes(self, small_scene, small_grid):
        # one 2-subcarrier kernel call against the ends of the full profile
        for design in (narrowband_design, dldd_design, per_element_td_design):
            config = design(small_scene, small_grid)
            gains = gain_profile(small_scene, small_grid, config)
            got = edge_gain(small_scene, small_grid, config)
            assert got == pytest.approx(min(gains[0], gains[-1]), abs=1e-12)


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

    @pytest.mark.parametrize("field", ["x_min", "x_max", "y_min", "y_max", "z"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        extents = dict(x_min=0.5, x_max=1.0, y_min=0.0, y_max=1.0, z=0.0)
        with pytest.raises(ValueError, match="finite"):
            EvaluationPlane(**{**extents, field: value}, n_x=2, n_y=2)

    def test_single_point_plane_allowed(self):
        plane = EvaluationPlane(x_min=2, x_max=2, y_min=-1, y_max=-1, z=0, n_x=1, n_y=1)
        assert plane.x_coords().tolist() == [2.0]


class TestBeamPattern:
    def test_nan_gains_rejected(self):
        with pytest.raises(ValueError):
            BeamPattern(np.array([[[0.5, np.nan]]]), peaks=())

    @pytest.mark.parametrize(
        "freqs, named",
        [([0.0], "0.0"), ([-3e11], "-300000000000.0"), ([3e11, np.nan], "nan"),
         ([np.inf], "inf"), ([], r"\[\]")],
        ids=["zero", "negative", "nan", "inf", "empty"],
    )
    def test_non_physical_frequencies_rejected(self, small_scene, small_grid, freqs, named):
        config = narrowband_design(small_scene, small_grid)
        plane = EvaluationPlane(x_min=1, x_max=2, y_min=0, y_max=1, z=0, n_x=2, n_y=2)
        pe = per_element_td_design(small_scene, small_grid)
        for configs in ({"nb": config}, {"nb": config, "pe": pe}):
            with pytest.raises(ValueError, match=named):
                multi_beam_pattern(small_scene, small_grid, configs, freqs, plane)

    def test_value_at_user_matches_gain_profile(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        user = small_scene.user
        plane = EvaluationPlane(
            x_min=user.x, x_max=user.x, y_min=user.y, y_max=user.y, z=user.z, n_x=1, n_y=1
        )
        gains = gain_profile(small_scene, small_grid, config)
        for m in (0, 15):
            f = float(small_grid.frequencies[m])
            pattern = multi_beam_pattern(small_scene, small_grid, {"one": config}, [f], plane)
            assert pattern["one"].gains[0, 0, 0] == pytest.approx(gains[m], abs=1e-12)

    def test_focus_peak_lands_on_user(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        user = small_scene.user
        plane = EvaluationPlane(
            x_min=user.x - 0.5, x_max=user.x + 0.5,
            y_min=user.y - 0.5, y_max=user.y + 0.5,
            z=user.z, n_x=21, n_y=21,
        )
        pattern = multi_beam_pattern(
            small_scene, small_grid, {"one": config}, [small_grid.f_c], plane
        )["one"]
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
            single = multi_beam_pattern(small_scene, small_grid, {name: config}, freqs, plane)[name]
            assert np.allclose(combined[name].gains, single.gains, atol=1e-12)

    def test_gains_bounded(self, small_scene, small_grid):
        config = per_element_td_design(small_scene, small_grid)
        user = small_scene.user
        plane = EvaluationPlane(
            x_min=user.x - 0.1, x_max=user.x + 0.1, y_min=user.y - 0.1, y_max=user.y + 0.1,
            z=user.z, n_x=7, n_y=7,
        )
        pattern = multi_beam_pattern(
            small_scene, small_grid, {"one": config}, [small_grid.f_c], plane
        )["one"]
        assert np.all(pattern.gains <= 1.0) and np.all(pattern.gains >= 0.0)


class TestAchievableRate:
    def test_rates_increase_with_power(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        noise = 10 ** ((-174 - 30) / 10)
        means = [
            achievable_rate(small_scene, small_grid, config, p, noise).mean()
            for p in (1e-3, 1e-1, 10.0, 1e3)
        ]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_vanishing_power_vanishing_rate(self, small_scene, small_grid):
        config = per_element_td_design(small_scene, small_grid)
        noise = 10 ** ((-174 - 30) / 10)
        rates = achievable_rate(small_scene, small_grid, config, 1e-30, noise)
        assert rates.shape == (small_grid.m_count,)
        assert rates.mean() < 1e-6
        assert np.all(rates >= 0)

    def test_design_ordering(self, small_scene, small_grid):
        noise = 10 ** ((-174 - 30) / 10)
        p = 1.0
        r_nb = achievable_rate(
            small_scene, small_grid, narrowband_design(small_scene, small_grid), p, noise
        ).mean()
        r_dl = achievable_rate(
            small_scene, small_grid, dldd_design(small_scene, small_grid), p, noise
        ).mean()
        r_pe = achievable_rate(
            small_scene, small_grid, per_element_td_design(small_scene, small_grid), p, noise
        ).mean()
        assert r_pe >= r_dl - 1e-12
        assert r_dl >= r_nb - 1e-12

    def test_argument_validation(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        with pytest.raises(ValueError):
            achievable_rate(small_scene, small_grid, config, 0.0, 1e-20)
        with pytest.raises(ValueError):
            achievable_rate(small_scene, small_grid, config, 1.0, 0.0)

    @pytest.mark.parametrize("p_bs, noise", [(np.nan, 1e-20), (np.inf, 1e-20),
                                             (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_power_or_noise_rejected(self, small_scene, small_grid, p_bs, noise):
        config = narrowband_design(small_scene, small_grid)
        with pytest.raises(ValueError, match="must be positive"):
            achievable_rate(small_scene, small_grid, config, p_bs, noise)


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


def per_subcarrier_peak(subcarriers):
    """Traced peak of every design's gain profile and gain magnitudes on the default panel."""
    scenario = parse_scenario(f"grid.subcarriers = {subcarriers}")
    scene, grid = scenario.scene, scenario.grid
    configs = [build_design(scenario, name) for name in DESIGN_NAMES]
    tracemalloc.start()
    try:
        for config in configs:
            gain_profile(scene, grid, config)
            cascade_gain_magnitudes(scene, grid, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWidebandMemory:
    def test_per_subcarrier_metrics_hold_no_element_by_subcarrier_array(self):
        # one (N, F) complex phasor array at N = 10^4, F = 2048 would alone take 328 MB;
        # the block-factorized kernel peaked at 21.4 MiB here, at 14.7 MiB with its
        # tables built by doubling, at 1.5 MiB with the non-uniform FFT, which spreads
        # one grid offset at a time through (N,) vectors, and at 1.6 MiB with the
        # elements sorted by grid cell (a sorted copy of each input vector)
        assert per_subcarrier_peak(2048) < 4 * 2**20

    @pytest.mark.parametrize("subcarriers", [*range(2, metrics._NUFFT_FROM), 128, 256])
    def test_per_subcarrier_memory_is_flat_below_the_wideband_sizes(self, subcarriers):
        # the former doubling tables and their BLAS product read 4.28 MiB at 128 and
        # 5.65 MiB at 256; the direct sum below _NUFFT_FROM holds at most 4 phasors per
        # element (1.83 MiB at 4, with the element distances), `_nufft` 1.25-1.27 MiB
        assert per_subcarrier_peak(subcarriers) < 2 * 2**20

    def test_per_subcarrier_memory_is_bounded_along_the_band(self):
        # the former doubling tables grew with sqrt(F) rows and columns and the product
        # with F: 79.9 MiB at 65,536 subcarriers; the non-uniform FFT holds a few grid-sized
        # vectors (2 MiB each at G = 131,072) and its (N,) scratch: 10.2 MiB
        assert per_subcarrier_peak(65536) < 24 * 2**20


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


def overflowing_delays(scene, grid):
    """A per-element design whose finite delays overflow every cascade phase to NaN."""
    config = per_element_td_design(scene, grid)
    tau = np.full(scene.layout.n_elements, 1e300)
    return replace(config, delay_network=PerElementDelayConfig(tau))


def on_overflow(metric, *args):
    """metric(scene, grid, config, *args) on the overflowing design."""
    return lambda scene, grid: metric(scene, grid, overflowing_delays(scene, grid), *args)


GAINS, MAGNITUDES = "gains must lie in [0, 1]", "gain magnitudes must be finite"
PLANE = EvaluationPlane(x_min=1, x_max=2, y_min=0, y_max=1, z=0, n_x=2, n_y=2)


# every public metric checks its output: phases that overflow to NaN raise, not return NaN
@pytest.mark.parametrize("run, fragment", [
    (lambda scene, grid: edge_gain(scene, replace(grid, m_count=1), narrowband_design(scene, grid)),
     "edge gain needs at least two subcarriers"),
    (on_overflow(gain_profile), GAINS),
    (on_overflow(normalized_array_gain, 3e11), GAINS),
    (on_overflow(edge_gain), GAINS),
    (lambda scene, grid: multi_beam_pattern(
        scene, grid, {"pe": overflowing_delays(scene, grid)}, [3e11], PLANE), GAINS),
    (lambda scene, grid: multi_beam_pattern(
        scene, grid, {"nb": narrowband_design(scene, grid), "pe": overflowing_delays(scene, grid)},
        [3e11], PLANE), GAINS),
    (on_overflow(cascade_gain_magnitudes), MAGNITUDES),
    (on_overflow(achievable_rate, 1.0, 1e-20), MAGNITUDES),
], ids=["edge-gain-one-subcarrier", "gain-profile-nan", "normalized-array-gain-nan",
        "edge-gain-nan", "beam-pattern-nan", "multi-beam-pattern-nan",
        "cascade-gain-magnitudes-nan", "achievable-rate-nan"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_input_checks(small_scene, small_grid, run, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        run(small_scene, small_grid)
