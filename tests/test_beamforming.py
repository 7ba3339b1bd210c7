import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab.beamforming import (
    BeamformerConfig,
    DlddDelayNetwork,
    PerElementDelayConfig,
    PhaseShiftConfig,
    SignConsistencyWarning,
    cumulative_delay,
    dldd_design,
    effective_reflection,
    narrowband_design,
    per_element_td_design,
    required_delay_range,
    required_subsurface_delays,
    sign_consistency_check,
    td_module_count,
)
from irslab.channel import CascadedDecomposition, cascaded_decomposition
from irslab.geometry import (
    SPEED_OF_LIGHT,
    FrequencyGrid,
    IrsLayout,
    Point3,
    Scene,
    SubsurfacePartition,
    subsurface_centers,
)
from irslab.metrics import gain_profile, normalized_array_gain

C = SPEED_OF_LIGHT


def default_centers_scene(k=10):
    """Full-size default geometry; only sub-surface-level quantities are cheap."""
    d = C / 300e9 / 2
    layout = IrsLayout(100, 100, d)
    part = SubsurfacePartition.for_layout(layout, k, k)
    return Scene(Point3(0, 1.5, -1.5), Point3(2, -4, -2), layout, part)


def brute_force_subsurface_taus(scene, partition):
    """Independent oracle: dedicated delays from raw center distances."""
    centers = subsurface_centers(scene.layout, partition)
    bs, user = scene.bs.as_array(), scene.user.as_array()
    taus = np.zeros((partition.k_y, partition.k_z))
    for a in range(partition.k_y):
        for b in range(partition.k_z):
            r_b = math.dist(bs, centers[a, b])
            r_u = math.dist(user, centers[a, b])
            taus[a, b] = -(r_b - r_u) / C
    return taus


class TestNarrowbandDesign:
    def test_unit_gain_at_center_frequency(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        assert normalized_array_gain(small_scene, small_grid, config, small_grid.f_c) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_mirror_symmetric_scene_needs_no_phases(self, mirror_scene, small_grid):
        config = narrowband_design(mirror_scene, small_grid)
        # phases are zero (or wrap to values indistinguishable from zero)
        assert np.allclose(np.minimum(config.phases.theta, 2 * np.pi - config.phases.theta), 0.0,
                           atol=1e-9)

    def test_phases_wrapped(self, small_scene, small_grid):
        theta = narrowband_design(small_scene, small_grid).phases.theta
        assert np.all(theta >= 0) and np.all(theta < 2 * np.pi)


class TestRequiredSubsurfaceDelays:
    def test_textbook_value(self):
        part = SubsurfacePartition(1, 1, 1)
        dec = CascadedDecomposition(
            partition=part,
            inter_delta_r=np.array([[-3.0]]),
            intra_delta_phi=np.zeros(1),
        )
        tau = required_subsurface_delays(dec)
        assert tau[0, 0] == pytest.approx(10000e-12, rel=1e-3)
        assert tau[0, 0] == pytest.approx(3.0 / C, rel=1e-15)

    def test_center_subsurface_default_scene(self):
        scene = default_centers_scene(k=5)
        dec = cascaded_decomposition(scene, scene.partition)
        tau = required_subsurface_delays(dec)
        oracle = (math.sqrt(24.0) - math.sqrt(4.5)) / C
        assert tau[2, 2] == pytest.approx(oracle, rel=1e-12)
        assert tau[2, 2] == pytest.approx(9265.3e-12, abs=0.1e-12)

    def test_zero_difference_zero_delay(self, mirror_scene):
        dec = cascaded_decomposition(mirror_scene, mirror_scene.partition)
        assert np.allclose(required_subsurface_delays(dec), 0.0, atol=1e-18)


class TestDlddDesign:
    def test_network_shapes(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        net = config.delay_network
        assert net.first_layer.shape == (3,)
        assert net.second_layer.shape == (4, 3)
        assert net.module_delays().shape == (15,)
        assert np.all(net.module_delays() >= 0)

    def test_single_subsurface_degenerates_to_phases(self, small_scene, small_grid):
        part = SubsurfacePartition.for_layout(small_scene.layout, 1, 1)
        config = dldd_design(small_scene, small_grid, part)
        assert config.delay_network.first_layer.shape == (0,)
        assert config.delay_network.second_layer.shape == (1, 0)
        assert np.allclose(config.element_delays(), 0.0)
        assert required_delay_range(config) == 0.0

    def test_unit_gain_at_center_frequency(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        gain = normalized_array_gain(small_scene, small_grid, config, small_grid.f_c)
        # limited only by the piece-wise model error, which is tiny here
        assert gain == pytest.approx(1.0, abs=1e-3)

    def test_network_matches_brute_force_deltas(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        taus = brute_force_subsurface_taus(small_scene, small_scene.partition)
        net = config.delay_network
        assert np.allclose(net.first_layer, taus[1:, 0] - taus[:-1, 0], rtol=0, atol=1e-18)
        assert np.allclose(net.second_layer, taus[:, 1:] - taus[:, :-1], rtol=0, atol=1e-18)

    def test_max_module_delay_default_scene(self):
        # frozen from the brute-force oracle over the default geometry
        scene = default_centers_scene()
        grid = FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=4)
        config = dldd_design(scene, grid)
        taus = brute_force_subsurface_taus(scene, scene.partition)
        oracle = max(
            np.abs(taus[1:, 0] - taus[:-1, 0]).max(),
            np.abs(taus[:, 1:] - taus[:, :-1]).max(),
        )
        assert required_delay_range(config) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(25.56e-12, abs=0.01e-12)


class TestCumulativeDelay:
    def test_reference_subsurface_is_zero(self, small_scene, small_grid):
        net = dldd_design(small_scene, small_grid).delay_network
        assert cumulative_delay(net, 1, 1) == 0.0

    def test_second_row_is_first_module(self, small_scene, small_grid):
        net = dldd_design(small_scene, small_grid).delay_network
        assert cumulative_delay(net, 2, 1) == pytest.approx(net.first_layer[0], rel=1e-15)

    def test_telescopes_to_dedicated_delays(self, small_scene, small_grid):
        net = dldd_design(small_scene, small_grid).delay_network
        taus = brute_force_subsurface_taus(small_scene, small_scene.partition)
        for a in range(4):
            for b in range(4):
                expected = taus[a, b] - taus[0, 0]
                assert cumulative_delay(net, a + 1, b + 1) == pytest.approx(
                    expected, abs=1e-15
                )

    def test_row_telescoping_is_exact(self, small_scene, small_grid):
        net = dldd_design(small_scene, small_grid).delay_network
        for a in range(4):
            acc = 0.0
            for b in range(1, 4):
                acc += net.second_layer[a, b - 1]
                diff = cumulative_delay(net, a + 1, b + 1) - cumulative_delay(net, a + 1, 1)
                assert diff == pytest.approx(acc, abs=1e-20)

    def test_default_scene_corner(self):
        scene = default_centers_scene()
        grid = FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=4)
        net = dldd_design(scene, grid).delay_network
        taus = brute_force_subsurface_taus(scene, scene.partition)
        assert cumulative_delay(net, 10, 10) == pytest.approx(
            taus[9, 9] - taus[0, 0], abs=1e-13
        )

    def test_index_validation(self, small_scene, small_grid):
        net = dldd_design(small_scene, small_grid).delay_network
        with pytest.raises(ValueError):
            cumulative_delay(net, 0, 1)
        with pytest.raises(ValueError):
            cumulative_delay(net, 1, 5)

    def test_cumulative_grid_matches_scalar(self, small_scene, small_grid):
        net = dldd_design(small_scene, small_grid).delay_network
        table = net.cumulative_delays()
        for a in range(4):
            for b in range(4):
                assert table[a, b] == pytest.approx(cumulative_delay(net, a + 1, b + 1), abs=0)


class TestSignConsistency:
    def test_default_scene_consistent(self):
        scene = default_centers_scene()
        dec = cascaded_decomposition(scene, scene.partition)
        report = sign_consistency_check(dec)
        assert report.consistent
        assert report.sign == 1  # BS closer than user, so dedicated delays are positive
        assert report.offending_modules == ()

    def test_mirror_scene_trivially_consistent(self, mirror_scene):
        dec = cascaded_decomposition(mirror_scene, mirror_scene.partition)
        report = sign_consistency_check(dec)
        assert report.consistent

    def test_inconsistent_scene_warns_and_proceeds(self):
        # near endpoint close to the panel axis: delta signs flip across the panel
        d = C / 300e9 / 2
        layout = IrsLayout(100, 100, d)
        part = SubsurfacePartition.for_layout(layout, 10, 10)
        scene = Scene(
            Point3(6.256, -0.808, -4.513), Point3(0.316, -0.033, -0.128), layout, part
        )
        grid = FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=4)
        dec = cascaded_decomposition(scene, part)
        report = sign_consistency_check(dec)
        assert not report.consistent
        assert len(report.offending_modules) > 0
        with pytest.warns(SignConsistencyWarning) as record:
            config = dldd_design(scene, grid, part)
        assert record[0].message.offending_modules == report.offending_modules
        # magnitude routing still yields physical module delays
        assert np.all(config.delay_network.module_delays() >= 0)


class TestPerElementDesign:
    def test_unit_gain_everywhere(self, small_scene, small_grid):
        config = per_element_td_design(small_scene, small_grid)
        profile = gain_profile(small_scene, small_grid, config)
        assert np.all(profile.gains >= 1 - 1e-9)

    def test_single_element(self, small_grid):
        layout = IrsLayout(1, 1, 1e-3)
        part = SubsurfacePartition.for_layout(layout, 1, 1)
        scene = Scene(Point3(1, 0.5, 0.2), Point3(3, -1, 0), layout, part)
        config = per_element_td_design(scene, small_grid)
        assert config.delay_network.tau.shape == (1,)
        for f in small_grid.frequencies:
            assert normalized_array_gain(scene, small_grid, config, float(f)) == (
                pytest.approx(1.0, abs=1e-12)
            )

    def test_delay_range_matches_brute_force(self):
        scene = default_centers_scene()
        grid = FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=4)
        config = per_element_td_design(scene, grid)
        # oracle: scan the four corner elements, where |r_bs - r_user| peaks
        d, n = scene.layout.d, 100
        lim = (n - 1) / 2 * d
        corners = [(y, z) for y in (-lim, lim) for z in (-lim, lim)]
        oracle = max(
            abs(
                math.dist(scene.bs.as_array(), (0, y, z))
                - math.dist(scene.user.as_array(), (0, y, z))
            )
            / C
            for y, z in corners
        )
        full = np.abs(config.delay_network.tau).max()
        assert full == pytest.approx(oracle, rel=1e-12)
        assert required_delay_range(config) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(9416.0e-12, abs=0.1e-12)


class TestModuleCount:
    def test_examples(self):
        assert td_module_count(SubsurfacePartition(10, 10, 10)) == 99
        assert td_module_count(SubsurfacePartition(2, 2, 5)) == 3
        assert td_module_count(SubsurfacePartition(1, 1, 7)) == 0

    @given(k_y=st.integers(1, 60), k_z=st.integers(1, 60))
    def test_equals_k_minus_one(self, k_y, k_z):
        part = SubsurfacePartition(k_y, k_z, 1)
        assert td_module_count(part) == part.k - 1


class TestEffectiveReflection:
    def test_phase_only_is_frequency_flat(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        a = effective_reflection(config, 250e9)
        b = effective_reflection(config, 350e9)
        assert np.allclose(a, b)
        assert np.allclose(a, np.exp(1j * config.phases.theta))

    def test_zero_frequency_gives_bare_phases(self, small_scene, small_grid):
        config = per_element_td_design(small_scene, small_grid)
        coeff = effective_reflection(config, 0.0)
        assert np.allclose(coeff, np.exp(1j * config.phases.theta))

    def test_unit_magnitude(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        coeff = effective_reflection(replace(config, delay_cap=2e-12), small_grid.frequencies[0])
        assert np.allclose(np.abs(coeff), 1.0)

    def test_negative_clamp_rejected(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        with pytest.raises(ValueError):
            effective_reflection(replace(config, delay_cap=-1e-12), 300e9)

    def test_fully_clamped_per_element_equals_narrowband(self, small_scene, small_grid):
        # with all delays clamped to zero the re-anchored phases reproduce the
        # narrowband design at every frequency
        pe = per_element_td_design(small_scene, small_grid)
        nb = narrowband_design(small_scene, small_grid)
        for f in (small_grid.frequencies[0], small_grid.f_c, small_grid.frequencies[-1]):
            a = effective_reflection(replace(pe, delay_cap=0.0), float(f))
            b = effective_reflection(nb, float(f))
            assert np.allclose(a, b, atol=1e-9)

    def test_clamp_at_design_range_is_identity(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        cap = required_delay_range(config)
        f = float(small_grid.frequencies[-1])
        assert np.allclose(
            effective_reflection(replace(config, delay_cap=cap), f), effective_reflection(config, f)
        )

    def test_center_frequency_response_unchanged_by_clamp(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        a = effective_reflection(config, small_grid.f_c)
        b = effective_reflection(replace(config, delay_cap=1e-12), small_grid.f_c)
        assert np.allclose(a, b, atol=1e-12)


class TestGlobalOffsetInvariance:
    def test_constant_phase_offset(self, small_scene, small_grid):
        config = narrowband_design(small_scene, small_grid)
        shifted = BeamformerConfig(
            design=config.design,
            phases=PhaseShiftConfig(np.mod(config.phases.theta + 1.234, 2 * np.pi)),
            delay_network=None,
            design_frequency=config.design_frequency,
        )
        a = gain_profile(small_scene, small_grid, config).gains
        b = gain_profile(small_scene, small_grid, shifted).gains
        assert np.allclose(a, b, atol=1e-12)

    def test_constant_delay_offset(self, small_scene, small_grid):
        config = per_element_td_design(small_scene, small_grid)
        shifted = BeamformerConfig(
            design=config.design,
            phases=config.phases,
            delay_network=PerElementDelayConfig(config.delay_network.tau + 5e-12),
            design_frequency=config.design_frequency,
        )
        a = gain_profile(small_scene, small_grid, config).gains
        b = gain_profile(small_scene, small_grid, shifted).gains
        assert np.allclose(a, b, atol=1e-12)


class TestConfigSerialization:
    def test_dldd_dict_schema(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        blob = config.as_dict()
        assert blob["design"] == "dldd"
        assert blob["partition"] == {"k_y": 4, "k_z": 4, "s": 5}
        assert len(blob["phases_rad"]) == 400
        net = blob["delay_network"]
        assert net["type"] == "dldd"
        assert len(net["first_layer_s"]) == 3
        assert len(net["second_layer_s"]) == 4
        assert net["switch_sign"] in (-1, 1)

    def test_per_element_dict_schema(self, small_scene, small_grid):
        blob = per_element_td_design(small_scene, small_grid).as_dict()
        assert blob["delay_network"]["type"] == "per-element"
        assert len(blob["delay_network"]["tau_s"]) == 400

    def test_narrowband_dict_schema(self, small_scene, small_grid):
        blob = narrowband_design(small_scene, small_grid).as_dict()
        assert blob["delay_network"] == {"type": "none"}

    def test_required_delay_range_needs_network(self, small_scene, small_grid):
        with pytest.raises(ValueError):
            required_delay_range(narrowband_design(small_scene, small_grid))


@settings(max_examples=20, deadline=None)
@given(
    bs=st.tuples(st.floats(0.3, 3), st.floats(-2, 2), st.floats(-2, 2)),
    user=st.tuples(st.floats(0.3, 5), st.floats(-4, 4), st.floats(-3, 3)),
)
def test_narrowband_cancellation_for_random_scenes(bs, user):
    layout = IrsLayout(10, 10, 0.0005)
    part = SubsurfacePartition.for_layout(layout, 2, 2)
    scene = Scene(Point3(*bs), Point3(*user), layout, part)
    grid = FrequencyGrid(f_c=300e9, bandwidth=10e9, m_count=2)
    config = narrowband_design(scene, grid)
    assert normalized_array_gain(scene, grid, config, grid.f_c) == pytest.approx(1.0, abs=1e-9)


class TestPhaseShiftConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, value):
        with pytest.raises(ValueError, match="phases"):
            PhaseShiftConfig(np.array([0.1, value]))


class TestDesignFrequency:
    @pytest.mark.parametrize("f", [0.0, -3e11, float("nan"), float("inf")])
    def test_non_physical_design_frequency_rejected(self, small_scene, small_grid, f):
        config = dldd_design(small_scene, small_grid)
        with pytest.raises(ValueError, match=r"^design_frequency=.* must be finite and above 0 Hz"):
            replace(config, design_frequency=f)


class TestDelayCap:
    def test_nan_cap_rejected(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        with pytest.raises(ValueError, match="delay_cap"):
            replace(config, delay_cap=float("nan"))

    def test_infinite_cap_rejected(self, small_scene, small_grid):
        # an inf cap would saturate nothing yet pass for a cap
        config = dldd_design(small_scene, small_grid)
        with pytest.raises(ValueError, match="delay_cap must be a finite"):
            replace(config, delay_cap=float("inf"))

    def test_cap_saturates_every_module(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        capped = replace(config, delay_cap=1e-12)
        net = config.delay_network
        assert np.array_equal(capped.element_delays(), net.element_delays(1e-12))
        assert np.array_equal(config.element_delays(), net.element_delays(None))

    def test_cap_is_not_exported(self, small_scene, small_grid):
        config = dldd_design(small_scene, small_grid)
        assert replace(config, delay_cap=1e-12).as_dict() == config.as_dict()


class TestDlddNetworkPartition:
    def test_layers_must_match_partition(self, small_scene, small_grid):
        net = dldd_design(small_scene, small_grid).delay_network
        with pytest.raises(ValueError, match="second layer"):
            replace(net, partition=SubsurfacePartition(4, 5, 5))
        with pytest.raises(ValueError, match="first layer"):
            replace(net, partition=SubsurfacePartition(5, 4, 5))

    @pytest.mark.parametrize("layer, value", [("first_layer", np.nan), ("second_layer", np.inf)])
    def test_non_finite_delta_rejected(self, small_scene, small_grid, layer, value):
        net = dldd_design(small_scene, small_grid).delay_network
        bad = getattr(net, layer).copy()
        bad.flat[0] = value
        with pytest.raises(ValueError, match="finite"):
            replace(net, **{layer: bad})

    def test_element_delays_follow_own_partition(self, small_scene, small_grid):
        net = dldd_design(small_scene, small_grid).delay_network
        assert (net.partition.k_y, net.partition.k_z) == (4, 4)
        delays = net.element_delays(None).reshape(20, 20)
        cum = net.cumulative_delays()
        assert delays[7, 13] == cum[1, 2]


NETWORK = DlddDelayNetwork(SubsurfacePartition(2, 2, 2), np.zeros(1), np.zeros((2, 1)), 1)


@pytest.mark.parametrize("build, fragment", [
    (lambda: PhaseShiftConfig(np.zeros((4, 4))), "theta must be a flat per-element array"),
    (lambda: replace(NETWORK, switch_sign=0), "switch_sign must be +1 or -1"),
    (lambda: PerElementDelayConfig(np.array([0.0, np.nan])),
     "tau must be a finite flat per-element array"),
    (lambda: BeamformerConfig("dldd", PhaseShiftConfig(np.zeros(9)), NETWORK, 300e9),
     "delay network inconsistent with the phase table size"),
], ids=["theta-2d", "switch-sign", "tau-finite", "network-size"])
def test_input_checks(build, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        build()
