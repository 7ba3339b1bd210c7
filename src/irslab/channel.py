"""Spherical-wave LoS channels, their piece-wise far-field approximation, and
the inter/intra sub-surface decomposition of the cascaded phase.

Convention: the cascaded BS-IRS-user gain is conj(user-side) * reflection *
(BS-side), so per element the normalized cascade carries the phase
-2*pi*(f/c) * (r_bs - r_user). All beamformer designs and the array-gain
metric follow this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    SPEED_OF_LIGHT,
    DegenerateGeometryError,
    FrequencyGrid,
    Scene,
    SubsurfacePartition,
    subsurface_centers,
)


@dataclass(frozen=True)
class CascadedDecomposition:
    """Split of the cascaded path-length difference into sub-surface terms.

    inter_delta_r[ky-1, kz-1] is the BS-to-center minus center-to-user
    distance difference of a sub-surface (meters, shape (k_y, k_z)).
    intra_delta_phi is the per-element linearized offset difference
    (meters, shape (N,), row-major element order). The piecewise cascaded
    phase at frequency f is -2*pi*(f/c) * (inter - intra) per element.
    """

    partition: SubsurfacePartition
    inter_delta_r: np.ndarray
    intra_delta_phi: np.ndarray

    def __post_init__(self) -> None:
        if self.inter_delta_r.shape != (self.partition.k_y, self.partition.k_z):
            raise ValueError("inter table must have shape (k_y, k_z)")
        if not np.all(np.isfinite(self.inter_delta_r)):
            raise ValueError("inter table must be finite")
        if not np.all(np.isfinite(self.intra_delta_phi)):
            raise ValueError("intra table must be finite")


def element_distances(scene: Scene, endpoint: str) -> np.ndarray:
    """Exact element-to-endpoint distances, shape (N,), row-major order: the scene's own."""
    scene.endpoint(endpoint)  # rejects an unknown endpoint name with ValueError
    r = scene.element_distances[endpoint]
    if np.any(r == 0.0):
        raise DegenerateGeometryError(f"{endpoint} coincides with a panel element")
    return r


def path_length_difference(scene: Scene) -> np.ndarray:
    """Exact per-element cascaded path difference r_bs - r_user, shape (N,)."""
    return element_distances(scene, "bs") - element_distances(scene, "user")


def exact_los_channel(
    scene: Scene, grid: FrequencyGrid, endpoint: str, normalized: bool = False
) -> np.ndarray:
    """Exact spherical-wave LoS channel between `endpoint` and every element, shape (N, M).

    Entry (n, m) is A * exp(-j*2*pi*(f_m/c)*r_n) with r_n the exact
    element distance. A is the free-space amplitude c/(4*pi*f_m*r_n), or 1
    when `normalized`.
    """
    r = element_distances(scene, endpoint)
    f = grid.frequencies
    gains = np.exp(-2j * np.pi / grid.c * np.outer(r, f))
    if not normalized:
        gains *= (grid.c / (4.0 * np.pi * f))[None, :] / r[:, None]
    return gains


def _first_order_terms(
    scene: Scene, partition: SubsurfacePartition, endpoint: str
) -> tuple[np.ndarray, np.ndarray]:
    """First-order expansion of the element distances to one endpoint.

    Returns the sub-surface center distances r_k, shape (k_y, k_z), and the
    linear intra offset projection phi = dy*sin_ele*sin_azi + dz*cos_ele,
    shape (k_y, k_z, s, s), with the angles those of the endpoint seen from
    each center; the linearized element distance is r_k - phi.
    """
    centers = subsurface_centers(scene.layout, partition)
    rel = scene.endpoint(endpoint).as_array() - centers
    r = np.linalg.norm(rel, axis=-1)
    if np.any(r == 0.0):
        raise DegenerateGeometryError(f"{endpoint} coincides with a sub-surface center")
    rho = np.hypot(rel[..., 0], rel[..., 1])
    sin_azi = np.divide(rel[..., 1], rho, out=np.zeros_like(rho), where=rho > 0)
    sin_ele, cos_ele = rho / r, rel[..., 2] / r
    off = (np.arange(partition.s) - (partition.s - 1) / 2) * scene.layout.d
    phi = (
        off[None, None, :, None] * (sin_ele * sin_azi)[:, :, None, None]
        + off[None, None, None, :] * cos_ele[:, :, None, None]
    )
    return r, phi


def piecewise_channel(
    scene: Scene, grid: FrequencyGrid, partition: SubsurfacePartition, endpoint: str
) -> np.ndarray:
    """Piece-wise far-field channel: exact to sub-surface centers, linear within.

    Unit magnitude, shape (N, M). Entry (n, m) carries the phase
    -2*pi*(f_m/c) * (r_k - dz*d*cos_ele - dy*d*sin_ele*sin_azi) built from
    the element's sub-surface center distance r_k and its intra offsets.
    """
    r, phi = _first_order_terms(scene, partition, endpoint)
    r_lin = partition.to_elements(r[:, :, None, None] - phi)
    return np.exp(-2j * np.pi / grid.c * np.outer(r_lin, grid.frequencies))


def cascaded_decomposition(scene: Scene, partition: SubsurfacePartition) -> CascadedDecomposition:
    """Split the piecewise cascaded phase into inter and intra sub-surface parts.

    inter_delta_r[k] = r_bs,k - r_user,k per sub-surface center;
    intra_delta_phi[n] = phi_bs,n - phi_user,n with phi the linear intra
    offset projection for each side. Reconstructing per-element phases as
    -2*pi*(f/c)*(inter - intra) reproduces the piecewise cascaded channel.
    """
    r_b, phi_b = _first_order_terms(scene, partition, "bs")
    r_u, phi_u = _first_order_terms(scene, partition, "user")
    return CascadedDecomposition(
        partition=partition,
        inter_delta_r=r_b - r_u,
        intra_delta_phi=partition.to_elements(phi_b - phi_u),
    )


def cascaded_phase_from_decomposition(decomp: CascadedDecomposition, f: float) -> np.ndarray:
    """Per-element piecewise cascaded phase -2*pi*(f/c)*(inter - intra), shape (N,)."""
    inter_el = decomp.partition.to_elements(decomp.inter_delta_r[:, :, None, None])
    return -2.0 * np.pi * f / SPEED_OF_LIGHT * (inter_el - decomp.intra_delta_phi)
