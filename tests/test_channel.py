import cmath
import math
import re

import numpy as np
import pytest

from irslab.channel import (
    CascadedDecomposition,
    cascaded_decomposition,
    cascaded_phase_from_decomposition,
    element_distances,
    exact_los_channel,
    path_length_difference,
    piecewise_channel,
)
from irslab.geometry import (
    SPEED_OF_LIGHT,
    DegenerateGeometryError,
    FrequencyGrid,
    IrsLayout,
    Point3,
    Scene,
    SubsurfacePartition,
    subsurface_center,
)

from conftest import wrapped_phase_diff

C = SPEED_OF_LIGHT


def single_element_scene(bs, user):
    layout = IrsLayout(1, 1, 1e-3)
    part = SubsurfacePartition.for_layout(layout, 1, 1)
    return Scene(bs=bs, user=user, layout=layout, partition=part)


class TestExactChannel:
    def test_one_wavelength_range_gives_unit_entry(self):
        f_c = 300e9
        grid = FrequencyGrid(f_c=f_c, bandwidth=1e9, m_count=1)
        scene = single_element_scene(Point3(C / f_c, 0, 0), Point3(1, 1, 1))
        ch = exact_los_channel(scene, grid, "bs", normalized=True)
        assert ch[0, 0] == pytest.approx(1.0 + 0j, abs=1e-9)

    def test_phase_against_scalar_oracle(self):
        # independent scalar evaluation for the center element and the BS link
        grid = FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=3)
        scene = single_element_scene(Point3(0.01, 1.5, -1.5), Point3(1, 1, 1))
        r = math.sqrt(0.01**2 + 1.5**2 + 1.5**2)
        ch = exact_los_channel(scene, grid, "bs", normalized=True)
        for m, f in enumerate(grid.frequencies):
            expected = cmath.exp(-2j * math.pi * f / C * r)
            assert ch[0, m] == pytest.approx(expected, abs=1e-9)

    def test_amplitude_is_free_space_path_loss(self):
        grid = FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=4)
        scene = single_element_scene(Point3(0.5, 0.25, -0.3), Point3(1, 1, 1))
        r = math.sqrt(0.5**2 + 0.25**2 + 0.3**2)
        ch = exact_los_channel(scene, grid, "bs", normalized=False)
        for m, f in enumerate(grid.frequencies):
            assert abs(ch[0, m]) == pytest.approx(C / (4 * math.pi * f * r), rel=1e-12)

    def test_normalized_entries_unit_magnitude(self, small_scene, small_grid):
        ch = exact_los_channel(small_scene, small_grid, "user", normalized=True)
        assert ch.shape == (400, 16)
        assert np.allclose(np.abs(ch), 1.0)

    def test_phase_invariant_under_full_wavelength_shift(self):
        # adding c/f to every path leaves the phase unchanged mod 2*pi
        f = 287.3e9
        for r in (0.731, 2.129, 5.004):
            a = cmath.exp(-2j * math.pi * f / C * r)
            b = cmath.exp(-2j * math.pi * f / C * (r + 3 * C / f))
            assert a == pytest.approx(b, abs=1e-9)

    def test_endpoint_on_element_raises(self):
        grid = FrequencyGrid(f_c=300e9, bandwidth=1e9, m_count=2)
        scene = single_element_scene(Point3(0, 0, 0), Point3(1, 1, 1))
        with pytest.raises(DegenerateGeometryError):
            exact_los_channel(scene, grid, "bs")


class TestPiecewiseChannel:
    def test_single_element_subsurfaces_reproduce_exact(self, small_scene, small_grid):
        part = SubsurfacePartition.for_layout(small_scene.layout, 20, 20)  # s = 1
        exact = exact_los_channel(small_scene, small_grid, "bs", normalized=True)
        approx = piecewise_channel(small_scene, small_grid, part, "bs")
        err = wrapped_phase_diff(np.angle(exact), np.angle(approx))
        assert err.max() < 1e-9

    def test_deep_far_field_agreement(self, small_layout, small_partition, small_grid):
        scene = Scene(
            bs=Point3(1e6, 2e5, -3e5),
            user=Point3(1, 1, 1),
            layout=small_layout,
            partition=small_partition,
        )
        exact = exact_los_channel(scene, small_grid, "bs", normalized=True)
        approx = piecewise_channel(scene, small_grid, small_partition, "bs")
        # compare after removing the common phase of element 0
        rel_exact = exact * np.conj(exact[:1])
        rel_approx = approx * np.conj(approx[:1])
        err = wrapped_phase_diff(np.angle(rel_exact), np.angle(rel_approx))
        assert err.max() < 1e-3

    def test_error_shrinks_with_subsurface_size(self, small_scene, small_grid):
        worst = []
        for k in (2, 4, 10, 20):  # s = 10, 5, 2, 1
            part = SubsurfacePartition.for_layout(small_scene.layout, k, k)
            exact = exact_los_channel(small_scene, small_grid, "bs", normalized=True)
            approx = piecewise_channel(small_scene, small_grid, part, "bs")
            worst.append(wrapped_phase_diff(np.angle(exact), np.angle(approx)).max())
        assert all(a >= b for a, b in zip(worst, worst[1:]))

    def test_unit_magnitude(self, small_scene, small_grid, small_partition):
        ch = piecewise_channel(small_scene, small_grid, small_partition, "user")
        assert np.allclose(np.abs(ch), 1.0)


class TestCascadedDecomposition:
    def test_mirror_symmetric_scene_has_zero_inter(self, mirror_scene):
        dec = cascaded_decomposition(mirror_scene, mirror_scene.partition)
        assert np.allclose(dec.inter_delta_r, 0.0, atol=1e-15)

    def test_center_subsurface_inter_value(self):
        # odd partition puts a sub-surface exactly at the panel center
        d = C / 300e9 / 2
        layout = IrsLayout(100, 100, d)
        part = SubsurfacePartition.for_layout(layout, 5, 5)
        scene = Scene(Point3(0, 1.5, -1.5), Point3(2, -4, -2), layout, part)
        dec = cascaded_decomposition(scene, part)
        expected = math.sqrt(4.5) - math.sqrt(24.0)
        assert dec.inter_delta_r[2, 2] == pytest.approx(expected, rel=1e-12)
        assert dec.inter_delta_r[2, 2] == pytest.approx(-2.77766, abs=1e-5)

    def test_center_element_of_odd_subsurface_has_zero_intra(self, small_layout):
        part = SubsurfacePartition.for_layout(small_layout, 4, 4)  # s = 5, odd
        scene = Scene(Point3(0.7, 0.4, -0.2), Point3(1.8, -1.0, -0.6), small_layout, part)
        dec = cascaded_decomposition(scene, part)
        intra = dec.intra_delta_phi.reshape(20, 20)
        for ky in range(4):
            for kz in range(4):
                center = intra[ky * 5 + 2, kz * 5 + 2]
                assert center == pytest.approx(0.0, abs=1e-18)

    def test_reconstruction_matches_piecewise_cascade(
        self, small_scene, small_grid, small_partition
    ):
        g = piecewise_channel(small_scene, small_grid, small_partition, "bs")
        h = piecewise_channel(small_scene, small_grid, small_partition, "user")
        dec = cascaded_decomposition(small_scene, small_partition)
        cascade = g * np.conj(h)
        for m, f in enumerate(small_grid.frequencies):
            rebuilt = cascaded_phase_from_decomposition(dec, float(f))
            err = wrapped_phase_diff(np.angle(cascade[:, m]), rebuilt)
            assert err.max() < 1e-9

    def test_table_shapes(self, small_scene, small_partition):
        dec = cascaded_decomposition(small_scene, small_partition)
        assert dec.inter_delta_r.shape == (4, 4)
        assert dec.intra_delta_phi.shape == (400,)


class TestDistanceHelpers:
    def test_element_distances_match_scalar(self, small_scene):
        r = element_distances(small_scene, "bs")
        # element (1,1) is the first row-major entry
        oy = (0 - (20 - 1) / 2) * small_scene.layout.d
        expected = math.sqrt(
            small_scene.bs.x**2 + (small_scene.bs.y - oy) ** 2 + (small_scene.bs.z - oy) ** 2
        )
        assert r[0] == pytest.approx(expected, rel=1e-15)

    def test_path_length_difference(self, small_scene):
        delta = path_length_difference(small_scene)
        assert delta.shape == (400,)
        assert np.allclose(
            delta, element_distances(small_scene, "bs") - element_distances(small_scene, "user")
        )


PARTITION = SubsurfacePartition(2, 2, 2)
LAYOUT = IrsLayout(4, 4, 1e-3)
CORNER = subsurface_center(LAYOUT, PARTITION, 1, 1)


@pytest.mark.parametrize("build, error, fragment", [
    (lambda: CascadedDecomposition(PARTITION, np.zeros((1, 2)), np.zeros(16)),
     ValueError, "inter table must have shape (k_y, k_z)"),
    (lambda: CascadedDecomposition(PARTITION, np.full((2, 2), np.nan), np.zeros(16)),
     ValueError, "inter table must be finite"),
    (lambda: CascadedDecomposition(PARTITION, np.zeros((2, 2)), np.full(16, np.inf)),
     ValueError, "intra table must be finite"),
    (lambda: cascaded_decomposition(Scene(CORNER, Point3(1.0, 0.0, 0.0), LAYOUT, PARTITION),
                                    PARTITION),
     DegenerateGeometryError, "bs coincides with a sub-surface center"),
], ids=["inter-shape", "inter-finite", "intra-finite", "endpoint-at-center"])
def test_input_checks(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()
