import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab.geometry import (
    SPEED_OF_LIGHT,
    DegenerateGeometryError,
    FrequencyGrid,
    IrsLayout,
    Point3,
    Scene,
    SubsurfacePartition,
    delta_index,
    distance,
    element_position,
    element_positions,
    fraunhofer_distance,
    link_angles,
    panel_distances,
    subsurface_center,
    subsurface_centers,
)


class TestDeltaIndex:
    def test_examples(self):
        assert delta_index(0, 10) == -4.5
        assert delta_index(5, 11) == 0.0
        assert delta_index(99, 100) == 49.5

    @pytest.mark.parametrize("a,b", [(-1, 10), (10, 10), (5, 3)])
    def test_out_of_range(self, a, b):
        with pytest.raises(ValueError):
            delta_index(a, b)

    @given(b=st.integers(1, 500), data=st.data())
    def test_offsets_symmetric_about_zero(self, b, data):
        a = data.draw(st.integers(0, b - 1))
        assert delta_index(a, b) + delta_index(b - 1 - a, b) == 0.0


class TestElementPosition:
    def test_corner_of_default_panel(self):
        layout = IrsLayout(100, 100, 0.5e-3)
        p = element_position(layout, 1, 1)
        assert p.x == 0.0
        assert p.y == pytest.approx(-24.75e-3, abs=1e-12)
        assert p.z == pytest.approx(-24.75e-3, abs=1e-12)

    def test_single_element_at_center(self):
        p = element_position(IrsLayout(1, 1, 0.002), 1, 1)
        assert (p.x, p.y, p.z) == (0.0, 0.0, 0.0)

    @given(
        n_y=st.integers(1, 12),
        n_z=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=50)
    def test_centrosymmetric(self, n_y, n_z, data):
        layout = IrsLayout(n_y, n_z, 0.0007)
        iy = data.draw(st.integers(1, n_y))
        iz = data.draw(st.integers(1, n_z))
        p = element_position(layout, iy, iz)
        q = element_position(layout, n_y + 1 - iy, n_z + 1 - iz)
        assert p.y + q.y == pytest.approx(0.0, abs=1e-15)
        assert p.z + q.z == pytest.approx(0.0, abs=1e-15)

    def test_index_out_of_range(self):
        layout = IrsLayout(4, 4, 1e-3)
        with pytest.raises(ValueError):
            element_position(layout, 0, 1)
        with pytest.raises(ValueError):
            element_position(layout, 1, 5)

    def test_vectorized_matches_scalar(self):
        layout = IrsLayout(3, 5, 1.3e-3)
        table = element_positions(layout)
        n = 0
        for iy in range(1, 4):
            for iz in range(1, 6):
                p = element_position(layout, iy, iz)
                assert np.allclose(table[n], [p.x, p.y, p.z])
                n += 1


class TestSubsurfaceCenter:
    def test_example(self):
        layout = IrsLayout(100, 100, 0.5e-3)
        part = SubsurfacePartition.for_layout(layout, 10, 10)
        c = subsurface_center(layout, part, 1, 1)
        assert c.y == pytest.approx(-22.5e-3, abs=1e-12)
        assert c.z == pytest.approx(-22.5e-3, abs=1e-12)

    def test_whole_panel_is_one_subsurface(self):
        layout = IrsLayout(8, 8, 1e-3)
        part = SubsurfacePartition.for_layout(layout, 1, 1)
        c = subsurface_center(layout, part, 1, 1)
        assert (c.x, c.y, c.z) == (0.0, 0.0, 0.0)

    def test_centrosymmetric_pairs(self):
        layout = IrsLayout(12, 12, 0.8e-3)
        part = SubsurfacePartition.for_layout(layout, 4, 4)
        for ky in range(1, 5):
            for kz in range(1, 5):
                a = subsurface_center(layout, part, ky, kz)
                b = subsurface_center(layout, part, 5 - ky, 5 - kz)
                assert a.y + b.y == pytest.approx(0.0, abs=1e-15)
                assert a.z + b.z == pytest.approx(0.0, abs=1e-15)

    def test_elements_stay_within_subsurface_radius(self):
        layout = IrsLayout(12, 12, 0.8e-3)
        part = SubsurfacePartition.for_layout(layout, 3, 3)
        s, d = part.s, layout.d
        limit = (s - 1) * d * math.sqrt(2) / 2 + 1e-12
        for ky in range(1, 4):
            for kz in range(1, 4):
                c = subsurface_center(layout, part, ky, kz).as_array()
                for sy in range(1, s + 1):
                    for sz in range(1, s + 1):
                        iy = (ky - 1) * s + sy
                        iz = (kz - 1) * s + sz
                        e = element_position(layout, iy, iz).as_array()
                        assert np.linalg.norm(e - c) <= limit


class TestDistance:
    def test_bs_to_origin(self):
        assert distance(Point3(0, 1.5, -1.5), Point3(0, 0, 0)) == pytest.approx(
            math.sqrt(4.5), rel=1e-15
        )
        assert distance(Point3(0, 1.5, -1.5), Point3(0, 0, 0)) == pytest.approx(2.12132, abs=1e-5)

    def test_user_to_origin(self):
        assert distance(Point3(2, -4, -2), Point3(0, 0, 0)) == pytest.approx(
            math.sqrt(24), rel=1e-15
        )

    def test_zero_iff_equal_and_symmetry(self):
        p, q = Point3(0.3, -1.2, 5.0), Point3(-0.7, 2.2, 1.0)
        assert distance(p, p) == 0.0
        assert distance(p, q) == distance(q, p) > 0


coords = st.floats(-8.0, 8.0, allow_nan=False)


def table_distances(layout, points):
    """The (N, 3) position-table formula that the per-axis distances replace."""
    return np.sqrt(np.square(element_positions(layout) - points[:, None, :]).sum(axis=-1))


class TestPanelDistances:
    """Distances from per-axis squares equal the position-table formula bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(n_y=st.integers(1, 23), n_z=st.integers(1, 23), d=st.floats(1e-4, 0.05),
           bs=st.tuples(coords, coords, coords), user=st.tuples(coords, coords, coords))
    def test_scene_distances_match_the_position_table(self, n_y, n_z, d, bs, user):
        # endpoints on either side of the panel plane, or in it
        layout = IrsLayout(n_y, n_z, d)
        scene = Scene(Point3(*bs), Point3(*user), layout, SubsurfacePartition(n_y, n_z, 1))
        want = table_distances(layout, np.array([bs, user]))
        got = scene.element_distances
        assert np.array_equal(got["bs"], want[0]) and np.array_equal(got["user"], want[1])

    @settings(max_examples=150, deadline=None)
    @given(n_y=st.integers(1, 23), n_z=st.integers(1, 23), d=st.floats(1e-4, 0.05),
           points=st.lists(st.tuples(coords, coords), min_size=1, max_size=6), z=coords)
    def test_plane_chunks_match_the_beam_kernel_formula(self, n_y, n_z, d, points, z):
        """A chunk of plane points at one height, into the kernel's scratch table."""
        layout = IrsLayout(n_y, n_z, d)
        px, py = np.array(points).T
        pos = element_positions(layout)
        # the beam kernel's formula before the per-axis squares
        want = np.sqrt((px[:, None] ** 2 + (py[:, None] - pos[:, 1]) ** 2) + (z - pos[:, 2]) ** 2)
        scratch = np.full((3, px.size + 2, layout.n_elements), np.nan)
        out = scratch[0, :px.size]
        assert panel_distances(layout, px, py, z, out=out) is out
        assert np.array_equal(out, want)
        assert np.isnan(scratch[0, px.size:]).all() and np.isnan(scratch[1:]).all()
        assert np.array_equal(
            panel_distances(layout, px, py, np.full(px.size, z)),
            table_distances(layout, np.column_stack([px, py, np.full(px.size, z)])),
        )


class TestLinkAngles:
    def test_endpoint_above_center_on_z_axis(self):
        _, sin_ele, cos_ele = link_angles(Point3(0, 0, 3.0), Point3(0, 0, 0))
        assert cos_ele == pytest.approx(1.0)
        assert sin_ele == pytest.approx(0.0)

    def test_endpoint_in_center_plane(self):
        _, _, cos_ele = link_angles(Point3(1.0, 2.0, -0.5), Point3(0, 0, -0.5))
        assert cos_ele == pytest.approx(0.0, abs=1e-15)

    def test_bs_example(self):
        _, _, cos_ele = link_angles(Point3(0, 1.5, -1.5), Point3(0, 0, 0))
        assert cos_ele == pytest.approx(-0.70711, abs=1e-5)

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateGeometryError):
            link_angles(Point3(1, 2, 3), Point3(1, 2, 3))

    @given(
        coords=st.lists(
            st.floats(-50, 50, allow_nan=False, allow_infinity=False), min_size=6, max_size=6
        )
    )
    def test_pythagorean_identity(self, coords):
        p = Point3(*coords[:3])
        c = Point3(*coords[3:])
        if distance(p, c) < 1e-6:
            return
        _, sin_ele, cos_ele = link_angles(p, c)
        assert sin_ele**2 + cos_ele**2 == pytest.approx(1.0, abs=1e-12)

    @given(
        coords=st.lists(st.floats(-20, 20, allow_nan=False), min_size=3, max_size=3),
        ky=st.integers(1, 5),
        kz=st.integers(1, 5),
    )
    @settings(max_examples=80)
    def test_second_order_expansion_matches_direct_norm(self, coords, ky, kz):
        # distance via center range/angles + offset terms == direct Euclidean norm
        layout = IrsLayout(20, 20, 0.0006)
        part = SubsurfacePartition.for_layout(layout, 5, 5)
        p = Point3(*coords)
        r0 = distance(p, Point3(0, 0, 0))
        if r0 < 0.5:
            return
        sin_azi, sin_ele, cos_ele = link_angles(p, Point3(0, 0, 0))
        c = subsurface_center(layout, part, ky, kz)
        u, v = c.y, c.z
        closed = math.sqrt(
            r0**2 + u**2 + v**2 - 2 * u * r0 * sin_ele * sin_azi - 2 * v * r0 * cos_ele
        )
        assert closed == pytest.approx(distance(p, c), abs=1e-12)


class TestFraunhofer:
    def test_default_panel(self):
        r = fraunhofer_distance(IrsLayout(100, 100, 0.4997e-3), 0.99931e-3)
        assert r == pytest.approx(9.79, abs=0.01)

    def test_single_element(self):
        assert fraunhofer_distance(IrsLayout(1, 1, 1e-3), 1e-3) == 0.0

    def test_doubling_spacing_quadruples(self):
        r1 = fraunhofer_distance(IrsLayout(30, 20, 1e-3), 1e-3)
        r2 = fraunhofer_distance(IrsLayout(30, 20, 2e-3), 1e-3)
        assert r2 == pytest.approx(4 * r1, rel=1e-12)

    def test_default_scene_endpoints_in_near_field(self):
        d = SPEED_OF_LIGHT / 300e9 / 2
        r = fraunhofer_distance(IrsLayout(100, 100, d), SPEED_OF_LIGHT / 300e9)
        assert distance(Point3(0, 1.5, -1.5), Point3(0, 0, 0)) < r
        assert distance(Point3(2, -4, -2), Point3(0, 0, 0)) < r


class TestFrequencyGrid:
    def test_symmetric_and_increasing(self):
        grid = FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=128)
        f = grid.frequencies
        assert f.shape == (128,)
        assert np.all(np.diff(f) > 0)
        assert np.allclose(f + f[::-1], 2 * grid.f_c)

    def test_default_edges(self):
        grid = FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=128)
        step = 30e9 / 128
        assert grid.frequencies[0] == pytest.approx(300e9 - 63.5 * step)
        assert grid.frequencies[-1] == pytest.approx(300e9 + 63.5 * step)

    def test_wavelength(self):
        grid = FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=4)
        assert grid.lambda_c == pytest.approx(SPEED_OF_LIGHT / 300e9, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            FrequencyGrid(f_c=-1.0, bandwidth=1e9, m_count=4)
        with pytest.raises(ValueError):
            FrequencyGrid(f_c=1e9, bandwidth=0.0, m_count=4)
        with pytest.raises(ValueError):
            FrequencyGrid(f_c=1e9, bandwidth=1e9, m_count=0)

    @pytest.mark.parametrize(
        "f_c, bandwidth, m_count",
        [(math.nan, 1e9, 4), (3e11, math.nan, 4), (math.inf, 1e9, 4), (3e11, math.inf, 1)],
    )
    def test_non_finite_rejected(self, f_c, bandwidth, m_count):
        with pytest.raises(ValueError, match="must be positive"):
            FrequencyGrid(f_c=f_c, bandwidth=bandwidth, m_count=m_count)

    @pytest.mark.parametrize("f_c, bandwidth, m_count", [(10e9, 30e9, 128), (1e9, 4e9, 2)])
    def test_nonpositive_lowest_subcarrier_rejected(self, f_c, bandwidth, m_count):
        # the second grid puts its lowest subcarrier exactly at 0 Hz
        with pytest.raises(ValueError, match="lowest subcarrier"):
            FrequencyGrid(f_c=f_c, bandwidth=bandwidth, m_count=m_count)

    def test_building_a_grid_builds_no_band(self):
        # checking the lowest subcarrier from the whole band traced 8 MB here
        tracemalloc.start()
        try:
            FrequencyGrid(f_c=300e9, bandwidth=30e9, m_count=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    @given(f_c=st.floats(1e6, 1e13), ratio=st.floats(1e-6, 1.9), m_count=st.integers(1, 5000))
    @settings(max_examples=200, deadline=None)
    def test_frequency_is_the_band_bit_for_bit(self, f_c, ratio, m_count):
        # a bandwidth below 2 f_c keeps the lowest subcarrier above 0 Hz
        grid = FrequencyGrid(f_c=f_c, bandwidth=ratio * f_c, m_count=m_count)
        band = grid.frequencies
        assert grid.frequency(0) == band[0]
        assert grid.frequency(m_count - 1) == band[-1]
        assert np.array_equal(grid.frequency(np.arange(m_count)), band)


class TestSceneAndPartition:
    def test_partition_divisibility(self):
        layout = IrsLayout(100, 100, 1e-3)
        with pytest.raises(ValueError, match="divisible"):
            SubsurfacePartition.for_layout(layout, 7, 10)

    def test_partition_must_be_square(self):
        layout = IrsLayout(100, 50, 1e-3)
        with pytest.raises(ValueError, match="square"):
            SubsurfacePartition.for_layout(layout, 10, 10)

    def test_scene_rejects_foreign_partition(self, small_layout):
        other = SubsurfacePartition(k_y=3, k_z=3, s=5)
        with pytest.raises(ValueError):
            Scene(Point3(1, 0, 0), Point3(2, 0, 0), small_layout, other)

    def test_scene_in_the_panel_plane_builds_silently(self, small_layout, small_partition):
        # only the scenario loader reports grazing placement (it names the file and key)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Scene(Point3(0.0, 1.5, -1.5), Point3(2, -4, -2), small_layout, small_partition)

    def test_subsurface_centers_table(self, small_layout, small_partition):
        table = subsurface_centers(small_layout, small_partition)
        assert table.shape == (4, 4, 3)
        c = subsurface_center(small_layout, small_partition, 2, 3)
        assert np.allclose(table[1, 2], [c.x, c.y, c.z])


class TestToElements:
    """`SubsurfacePartition.to_elements` against the scalar references."""

    @settings(max_examples=60, deadline=None)
    @given(k_y=st.integers(1, 5), k_z=st.integers(1, 5), s=st.integers(1, 5),
           d=st.floats(1e-4, 1e-2))
    def test_element_is_its_center_plus_its_intra_offset(self, k_y, k_z, s, d):
        layout = IrsLayout(k_y * s, k_z * s, d)
        part = SubsurfacePartition.for_layout(layout, k_y, k_z)
        centers = subsurface_centers(layout, part)
        off = (np.arange(s) - (s - 1) / 2) * d
        tables = np.broadcast_arrays(centers[:, :, 1, None, None] + off[:, None],
                                     centers[:, :, 2, None, None] + off)
        y, z = (part.to_elements(np.array(t)) for t in tables)  # full (k_y, k_z, s, s) tables
        center_y = part.to_elements(centers[:, :, 1, None, None])
        assert y.shape == z.shape == center_y.shape == (layout.n_elements,)
        for iy in range(1, layout.n_y + 1):
            for iz in range(1, layout.n_z + 1):
                n = (iy - 1) * layout.n_z + (iz - 1)
                (ky, a), (kz, b) = divmod(iy - 1, s), divmod(iz - 1, s)
                c = subsurface_center(layout, part, ky + 1, kz + 1)
                assert (y[n], z[n]) == (c.y + delta_index(a, s) * d, c.z + delta_index(b, s) * d)
                assert center_y[n] == c.y
                p = element_position(layout, iy, iz)
                assert (y[n], z[n]) == pytest.approx((p.y, p.z), abs=1e-12 * d)


LAYOUT = IrsLayout(4, 4, 1e-3)
PARTITION = SubsurfacePartition.for_layout(LAYOUT, 2, 2)
FOREIGN = SubsurfacePartition(3, 3, 1)


@pytest.mark.parametrize("build, fragment", [
    (lambda: Point3(math.inf, 0.0, 0.0), "coordinates must be finite"),
    (lambda: IrsLayout(0, 4, 1e-3), "element counts must be >= 1"),
    (lambda: IrsLayout(4, 4, 0.0), "element spacing d must be positive"),
    (lambda: SubsurfacePartition(2, 0, 2), "partition counts must be >= 1"),
    (lambda: SubsurfacePartition.for_layout(LAYOUT, 0, 2), "sub-surface counts must be >= 1"),
    (lambda: SubsurfacePartition.for_layout(IrsLayout(4, 6, 1e-3), 2, 4),
     "n_z=6 is not divisible by k_z=4"),
    (lambda: Scene(Point3(1, 0, 0), Point3(2, 0, 0), LAYOUT, PARTITION).endpoint("ris"),
     "endpoint must be 'bs' or 'user', got 'ris'"),
    (lambda: subsurface_center(LAYOUT, FOREIGN, 1, 1), "partition does not tile the layout"),
    (lambda: subsurface_center(LAYOUT, PARTITION, 0, 1), "ky=0 outside [1, 2]"),
    (lambda: subsurface_center(LAYOUT, PARTITION, 1, 3), "kz=3 outside [1, 2]"),
    (lambda: fraunhofer_distance(LAYOUT, 0.0), "wavelength must be positive"),
    (lambda: subsurface_centers(LAYOUT, FOREIGN), "partition does not tile the layout"),
], ids=["point-inf", "layout-count", "layout-spacing", "partition-count", "for-layout-count",
        "for-layout-n_z", "scene-endpoint", "center-foreign", "center-ky", "center-kz",
        "fraunhofer-wavelength", "centers-foreign"])
def test_input_checks(build, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        build()
