"""Scene geometry: panel layout, sub-surface partition, evaluation plane, distances, angles.

The IRS panel lies in the y-z plane, centered at the origin. Elements and
sub-surfaces are indexed 1-based along y then z; flattened arrays are
row-major in (iy, iz), i.e. the z index varies fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

SPEED_OF_LIGHT = 299792458.0
"""Propagation speed in m/s (exact SI value)."""


class DegenerateGeometryError(ValueError):
    """An endpoint coincides with a panel element or reference point."""


class PanelPlaneWarning(UserWarning):
    """An endpoint ('bs' or 'user') lies exactly in the panel plane (x = 0).

    The scenario loader raises it, naming the file and key. The formulas stay
    defined; grazing placement is accepted but flagged as usually unintended.
    """

    def __init__(self, message: str, endpoint: str):
        super().__init__(message)
        self.endpoint = endpoint


@dataclass(frozen=True)
class Point3:
    """A point in 3-D Cartesian space, in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(np.isfinite([self.x, self.y, self.z])):
            raise ValueError("coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class IrsLayout:
    """Uniform planar array: n_y x n_z elements spaced d meters apart."""

    n_y: int
    n_z: int
    d: float

    def __post_init__(self) -> None:
        if self.n_y < 1 or self.n_z < 1:
            raise ValueError("element counts must be >= 1")
        if not (np.isfinite(self.d) and self.d > 0):
            raise ValueError("element spacing d must be positive")

    @property
    def n_elements(self) -> int:
        return self.n_y * self.n_z


@dataclass(frozen=True)
class SubsurfacePartition:
    """Grouping of the panel into k_y x k_z square sub-surfaces of s x s elements."""

    k_y: int
    k_z: int
    s: int

    def __post_init__(self) -> None:
        if self.k_y < 1 or self.k_z < 1 or self.s < 1:
            raise ValueError("partition counts must be >= 1")

    @property
    def k(self) -> int:
        return self.k_y * self.k_z

    @classmethod
    def for_layout(cls, layout: IrsLayout, k_y: int, k_z: int) -> "SubsurfacePartition":
        """Build a partition of `layout`, validating divisibility.

        Sub-surfaces are square, so n_y / k_y must equal n_z / k_z.
        """
        if k_y < 1 or k_z < 1:
            raise ValueError("sub-surface counts must be >= 1")
        if layout.n_y % k_y != 0:
            raise ValueError(f"n_y={layout.n_y} is not divisible by k_y={k_y}")
        if layout.n_z % k_z != 0:
            raise ValueError(f"n_z={layout.n_z} is not divisible by k_z={k_z}")
        s = layout.n_y // k_y
        if layout.n_z // k_z != s:
            raise ValueError(
                f"partition {k_y}x{k_z} of {layout.n_y}x{layout.n_z} panel has "
                f"non-square sub-surfaces ({s}x{layout.n_z // k_z})"
            )
        return cls(k_y=k_y, k_z=k_z, s=s)

    def matches(self, layout: IrsLayout) -> bool:
        return self.s * self.k_y == layout.n_y and self.s * self.k_z == layout.n_z

    def to_elements(self, table: np.ndarray) -> np.ndarray:
        """Lay a per-sub-surface table out in row-major element order, shape (N,).

        Entry [ky, kz, a, b] of a (k_y, k_z, s, s) table belongs to the element at
        intra offset (a, b) of sub-surface (ky, kz); a table with size-1 trailing
        axes, such as (k_y, k_z, 1, 1), gives every element of a sub-surface its
        value. With s = 1 the result is a read-only view of `table`.
        """
        s = self.s
        return np.broadcast_to(table, (self.k_y, self.k_z, s, s)).transpose(0, 2, 1, 3).reshape(-1)


@dataclass(frozen=True)
class FrequencyGrid:
    """OFDM subcarrier grid: m_count subcarriers symmetric about f_c.

    Subcarrier m (0-based) sits at f_c + (bandwidth / m_count) * (m - (m_count-1)/2),
    so the grid spans f_c +/- bandwidth*(m_count-1)/(2*m_count). Edge subcarriers
    are indices 0 and m_count - 1. `c` is the class constant SPEED_OF_LIGHT.
    """

    f_c: float
    bandwidth: float
    m_count: int
    c: ClassVar[float] = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        if not (np.isfinite(self.f_c) and self.f_c > 0):
            raise ValueError("center frequency must be positive")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be positive")
        if self.m_count < 1:
            raise ValueError("subcarrier count must be >= 1")
        lowest = self.frequency(0)
        if lowest <= 0:
            raise ValueError(f"lowest subcarrier at {lowest / 1e9:g} GHz must be above 0 GHz")

    @property
    def lambda_c(self) -> float:
        """Wavelength at the center frequency, meters."""
        return self.c / self.f_c

    def frequency(self, m: int | np.ndarray) -> float | np.ndarray:
        """Frequency in Hz of subcarrier m (0-based), or of each index of an index array;
        the band edges are frequency(0) and frequency(m_count - 1), with no band built."""
        return self.f_c + (self.bandwidth / self.m_count) * (m - (self.m_count - 1) / 2)

    @property
    def frequencies(self) -> np.ndarray:
        """All subcarrier frequencies in Hz, strictly increasing."""
        return self.frequency(np.arange(self.m_count, dtype=float))


@dataclass(frozen=True)
class Scene:
    """BS and user positions plus the panel layout and its default partition."""

    bs: Point3
    user: Point3
    layout: IrsLayout
    partition: SubsurfacePartition

    def __post_init__(self) -> None:
        if not self.partition.matches(self.layout):
            raise ValueError(
                f"partition {self.partition.k_y}x{self.partition.k_z} (s={self.partition.s}) "
                f"does not tile the {self.layout.n_y}x{self.layout.n_z} layout"
            )

    def endpoint(self, which: str) -> Point3:
        if which == "bs":
            return self.bs
        if which == "user":
            return self.user
        raise ValueError(f"endpoint must be 'bs' or 'user', got {which!r}")

    @cached_property
    def element_distances(self) -> dict[str, np.ndarray]:
        """Exact distances from every element to 'bs' and to 'user', each shape (N,) in
        row-major order; computed once, on first use, and read-only."""
        bs, user = self.bs, self.user
        r = panel_distances(self.layout, np.array([bs.x, user.x]), np.array([bs.y, user.y]),
                            np.array([bs.z, user.z]))
        r.flags.writeable = False
        return {"bs": r[0], "user": r[1]}


@dataclass(frozen=True)
class EvaluationPlane:
    """Axis-aligned horizontal rectangle (fixed z) sampled on a regular grid."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z: float
    n_x: int
    n_y: int

    def __post_init__(self) -> None:
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("plane resolution must be >= 1 point per axis")
        if not np.all(np.isfinite([self.x_min, self.x_max, self.y_min, self.y_max, self.z])):
            raise ValueError("plane extents and height must be finite")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("plane extents must be ordered")
        if (self.n_x > 1 and self.x_min == self.x_max) or (
            self.n_y > 1 and self.y_min == self.y_max
        ):
            raise ValueError("degenerate plane: zero extent with multiple points")
        if self.x_min <= 0.0 <= self.x_max:
            raise ValueError("plane must not cross the panel plane x = 0")

    def x_coords(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def y_coords(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.n_y)


def delta_index(a: int, b: int) -> float:
    """Half-integer offset of slot `a` within an axis of length `b`: a - (b-1)/2.

    Valid for 0 <= a <= b-1; the offsets are symmetric about zero.
    """
    if not 0 <= a <= b - 1:
        raise ValueError(f"index {a} outside [0, {b - 1}]")
    return a - (b - 1) / 2


def element_position(layout: IrsLayout, iy: int, iz: int) -> Point3:
    """Position of the (iy, iz)-th element, 1-based indices.

    The element set is centrosymmetric about the panel center (the origin).
    """
    if not 1 <= iy <= layout.n_y:
        raise ValueError(f"iy={iy} outside [1, {layout.n_y}]")
    if not 1 <= iz <= layout.n_z:
        raise ValueError(f"iz={iz} outside [1, {layout.n_z}]")
    return Point3(
        0.0,
        delta_index(iy - 1, layout.n_y) * layout.d,
        delta_index(iz - 1, layout.n_z) * layout.d,
    )


def subsurface_center(
    layout: IrsLayout, partition: SubsurfacePartition, ky: int, kz: int
) -> Point3:
    """Center of the (ky, kz)-th sub-surface, 1-based indices."""
    if not partition.matches(layout):
        raise ValueError("partition does not tile the layout")
    if not 1 <= ky <= partition.k_y:
        raise ValueError(f"ky={ky} outside [1, {partition.k_y}]")
    if not 1 <= kz <= partition.k_z:
        raise ValueError(f"kz={kz} outside [1, {partition.k_z}]")
    step = partition.s * layout.d
    return Point3(
        0.0,
        delta_index(ky - 1, partition.k_y) * step,
        delta_index(kz - 1, partition.k_z) * step,
    )


def distance(p: Point3, q: Point3) -> float:
    """Euclidean distance between two points, meters."""
    return math.dist(p.as_array(), q.as_array())


def link_angles(endpoint: Point3, center: Point3) -> tuple[float, float, float]:
    """Link trigonometry of `endpoint` as seen from a sub-surface center.

    Returns (sin_azimuth, sin_elevation, cos_elevation) for the relative
    vector endpoint - center, with azimuth measured in the x-y plane and
    elevation from it, so sin_elevation**2 + cos_elevation**2 == 1.
    """
    rel = endpoint.as_array() - center.as_array()
    r = math.hypot(*rel)
    if r == 0.0:
        raise DegenerateGeometryError("endpoint coincides with the sub-surface center")
    rho = float(np.hypot(rel[0], rel[1]))
    sin_azi = rel[1] / rho if rho > 0 else 0.0
    return sin_azi, rho / r, rel[2] / r


def fraunhofer_distance(layout: IrsLayout, lambda_c: float) -> float:
    """Near-field boundary 2 D^2 / lambda_c with D the panel diagonal."""
    if lambda_c <= 0:
        raise ValueError("wavelength must be positive")
    diag = layout.d * float(np.hypot(layout.n_y - 1, layout.n_z - 1))
    return 2.0 * diag**2 / lambda_c


# --- vectorized helpers used by the channel and metric kernels ---


def _panel_axis(n: int, step: float) -> np.ndarray:
    """Coordinates of n points `step` apart along one panel axis, centered on 0."""
    return (np.arange(n) - (n - 1) / 2) * step


def _panel_grid(n_y: int, n_z: int, step: float) -> np.ndarray:
    """Points (0, y, z) of an n_y x n_z grid in the panel plane, `step` apart and
    centered on the origin, as an (n_y, n_z, 3) array."""
    yy, zz = np.meshgrid(_panel_axis(n_y, step), _panel_axis(n_z, step), indexing="ij")
    return np.stack([np.zeros_like(yy), yy, zz], axis=-1)


def element_positions(layout: IrsLayout) -> np.ndarray:
    """All element positions as an (N, 3) array, row-major in (iy, iz)."""
    return _panel_grid(layout.n_y, layout.n_z, layout.d).reshape(-1, 3)


def element_axes(layout: IrsLayout) -> tuple[np.ndarray, np.ndarray]:
    """The element coordinates per axis, shapes (n_y,) and (n_z,): element (iy, iz)
    sits at (0, y[iy - 1], z[iz - 1])."""
    return _panel_axis(layout.n_y, layout.d), _panel_axis(layout.n_z, layout.d)


def panel_distances(
    layout: IrsLayout, x: np.ndarray, y: np.ndarray, z: np.ndarray | float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Distances from P points (x_p, y_p, z_p) to every element, shape (P, N), row-major
    in (iy, iz); z may be one height for all points. Written to out if given.

    The panel is a lattice, so each squared distance is (x_p^2 + dy_pa^2) + dz_pb^2 from
    per-axis squares, P*(n_y + n_z) of them instead of P*N*3, summed in the order of
    the (N, 3) position-table formula and so bit for bit equal to it.
    """
    el_y, el_z = element_axes(layout)
    dy2 = np.square(np.subtract.outer(y, el_y))  # (P, n_y)
    dy2 += np.square(x)[:, None]
    dz2 = np.square(np.subtract.outer(z, el_z))  # (P, n_z) or (n_z,)
    if out is None:
        out = np.empty((dy2.shape[0], layout.n_elements))
    np.add(dy2[:, :, None], dz2[..., None, :], out=out.reshape(-1, layout.n_y, layout.n_z))
    return np.sqrt(out, out=out)


def subsurface_centers(layout: IrsLayout, partition: SubsurfacePartition) -> np.ndarray:
    """All sub-surface centers as a (k_y, k_z, 3) array."""
    if not partition.matches(layout):
        raise ValueError("partition does not tile the layout")
    return _panel_grid(partition.k_y, partition.k_z, partition.s * layout.d)
