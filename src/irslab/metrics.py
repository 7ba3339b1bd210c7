"""Array-gain, beam-pattern and achievable-rate evaluation.

All gains are evaluated against the exact spherical-wave channel regardless of
which model a beamformer was designed from. Per-subcarrier gains come from
one cascade kernel (`_cascade_sums`), a matrix product of block-start and offset
phasor tables; the beam pattern reduces each plane chunk with a matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .beamforming import BeamformerConfig
from .channel import element_distances
from .geometry import FrequencyGrid, Scene, element_positions

GAIN_TOL = 1e-9


def _check_gains(gains: np.ndarray) -> None:
    # written so that NaN fails the check
    if not np.all((gains >= -GAIN_TOL) & (gains <= 1 + GAIN_TOL)):
        raise ValueError("gains must lie in [0, 1]")


@dataclass(frozen=True)
class GainProfile:
    """Normalized array gain per subcarrier, each value in [0, 1]."""

    frequencies: np.ndarray
    gains: np.ndarray

    def __post_init__(self) -> None:
        if self.frequencies.shape != self.gains.shape:
            raise ValueError("frequency and gain arrays must align")
        _check_gains(self.gains)


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


@dataclass(frozen=True)
class Peak:
    """Location and value of a beam pattern's maximum at one frequency."""

    frequency: float
    x: float
    y: float
    gain: float
    ix: int
    iy: int


@dataclass(frozen=True)
class BeamPattern:
    """Gain over an evaluation plane for a set of frequencies, shape (F, n_x, n_y)."""

    plane: EvaluationPlane
    frequencies: np.ndarray
    gains: np.ndarray
    peaks: tuple[Peak, ...]

    def __post_init__(self) -> None:
        _check_gains(self.gains)


@dataclass(frozen=True)
class RateResult:
    """Per-subcarrier spectral efficiency under an equal-power OFDM budget."""

    p_bs: float
    noise_density: float
    rates: np.ndarray
    mean_rate: float


def _cascade_sums(
    config: BeamformerConfig, r_bs: np.ndarray, r_user: np.ndarray, c: float,
    f0: float, df: float, count: int, weights: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Sums over the elements of w_n exp(j*(anchor_n - 2*pi*f_i*delta_n)), f_i = f0 + i*df.

    delta_n = (r_bs,n - r_user,n)/c + tau_n. Subcarrier i = b*B + k, B = ceil(sqrt(count)), is
    an exact exp at its block start times one at k*df: one matrix product gives every sum.
    """
    anchor, tau = config.anchor_and_delays()
    delta = (r_bs - r_user) / c + tau
    block = int(np.ceil(np.sqrt(count)))
    starts = f0 + df * np.arange(0, count, block)
    rows = weights * np.exp(1j * (anchor - 2 * np.pi * np.outer(starts, delta)))
    offsets = np.exp(-2j * np.pi * np.outer(delta, df * np.arange(block)))
    return (rows @ offsets).ravel()[:count]


def normalized_array_gain(
    scene: Scene, grid: FrequencyGrid, config: BeamformerConfig, f: float
) -> float:
    """Normalized array gain (1/N)|sum of cascade phasors| at f: a one-subcarrier profile."""
    return float(gain_profile(scene, replace(grid, f_c=f, m_count=1), config).gains[0])


def gain_profile(scene: Scene, grid: FrequencyGrid, config: BeamformerConfig) -> GainProfile:
    """Normalized array gain at every subcarrier of the grid."""
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    f, df = grid.frequencies, grid.bandwidth / grid.m_count
    sums = _cascade_sums(config, r_bs, r_user, grid.c, f[0], df, f.size)
    return GainProfile(frequencies=f, gains=np.minimum(np.abs(sums) / r_bs.size, 1.0))


def edge_gain(profile: GainProfile) -> float:
    """Smaller of the two edge-subcarrier gains."""
    if profile.gains.size < 2:
        raise ValueError("edge gain needs at least two subcarriers")
    return float(min(profile.gains[0], profile.gains[-1]))


def multi_beam_pattern(
    scene: Scene,
    grid: FrequencyGrid,
    configs: dict[str, BeamformerConfig],
    frequencies: Sequence[float],
    plane: EvaluationPlane,
    chunk: int = 512,
) -> dict[str, BeamPattern]:
    """Beam patterns for several configurations over one plane.

    Element-to-point distances and the per-frequency point phasors are
    computed once per chunk and shared across all configurations, which is
    what makes sweeping designs over the default 201x201 plane affordable.
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    pos = element_positions(scene.layout)
    el_y, el_z = pos[:, 1], pos[:, 2]
    r_bs = element_distances(scene, "bs")
    # per-(config, frequency) element weights: cascade BS side x reflection
    weights = {}
    for name, config in configs.items():
        anchor, tau = config.anchor_and_delays()
        weights[name] = np.exp(1j * (anchor - 2 * np.pi * freqs[:, None] * (r_bs / grid.c + tau)))

    xs, ys = plane.x_coords(), plane.y_coords()
    px = np.repeat(xs, plane.n_y)
    py = np.tile(ys, plane.n_x)
    n_pts = px.size
    gains = {name: np.empty((freqs.size, n_pts)) for name in configs}
    for start in range(0, n_pts, chunk):
        sl = slice(start, min(start + chunk, n_pts))
        r_p = np.sqrt(
            px[sl, None] ** 2
            + (py[sl, None] - el_y[None, :]) ** 2
            + (plane.z - el_z[None, :]) ** 2
        )
        for i, f in enumerate(freqs):
            phasors = 2j * np.pi * f / grid.c * r_p
            np.exp(phasors, out=phasors)
            for name in configs:
                gains[name][i, sl] = np.abs(phasors @ weights[name][i]) / r_bs.size

    out = {}
    for name in configs:
        g = np.minimum(gains[name].reshape(freqs.size, plane.n_x, plane.n_y), 1.0)
        peaks = []
        for i, f in enumerate(freqs):
            ix, iy = np.unravel_index(int(np.argmax(g[i])), g[i].shape)
            peaks.append(
                Peak(frequency=float(f), x=float(xs[ix]), y=float(ys[iy]),
                     gain=float(g[i, ix, iy]), ix=int(ix), iy=int(iy))
            )
        out[name] = BeamPattern(plane=plane, frequencies=freqs, gains=g, peaks=tuple(peaks))
    return out


def beam_pattern(
    scene: Scene,
    grid: FrequencyGrid,
    config: BeamformerConfig,
    frequencies: Sequence[float],
    plane: EvaluationPlane,
    chunk: int = 512,
) -> BeamPattern:
    """Array gain over a plane: user-side distances replaced by plane points."""
    configs = {"only": config}
    return multi_beam_pattern(scene, grid, configs, frequencies, plane, chunk=chunk)["only"]


def cascade_gain_magnitudes(
    scene: Scene, grid: FrequencyGrid, config: BeamformerConfig
) -> np.ndarray:
    """|amplitude-weighted cascaded gain| per subcarrier, shape (M,).

    Uses the un-normalized channel amplitudes alpha_m/r on both hops, so the
    result is the magnitude of the end-to-end complex gain.
    """
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    f, df = grid.frequencies, grid.bandwidth / grid.m_count
    sums = _cascade_sums(config, r_bs, r_user, grid.c, f[0], df, f.size, 1 / (r_bs * r_user))
    return (grid.c / (4.0 * np.pi * f)) ** 2 * np.abs(sums)


def rates_from_gain(
    gain_mag: np.ndarray, grid: FrequencyGrid, p_bs: float, noise_density: float
) -> np.ndarray:
    """Per-subcarrier rate for a precomputed cascaded gain magnitude."""
    if p_bs <= 0:
        raise ValueError("transmit power must be positive")
    if noise_density <= 0:
        raise ValueError("noise density must be positive")
    m = grid.m_count
    snr = (p_bs / m) * gain_mag**2 / (noise_density * grid.bandwidth / m)
    return np.log2(1.0 + snr)


def achievable_rate(
    scene: Scene,
    grid: FrequencyGrid,
    config: BeamformerConfig,
    p_bs: float,
    noise_density: float,
) -> RateResult:
    """Mean spectral efficiency with power split equally over the subcarriers.

    Per subcarrier: log2(1 + (P/M) |amplitude-weighted cascaded gain|^2 /
    (N0 * B/M)).
    """
    gain_mag = cascade_gain_magnitudes(scene, grid, config)
    rates = rates_from_gain(gain_mag, grid, p_bs, noise_density)
    return RateResult(
        p_bs=p_bs,
        noise_density=noise_density,
        rates=rates,
        mean_rate=float(rates.mean()),
    )
