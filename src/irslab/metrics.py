"""Array-gain, beam-pattern and achievable-rate evaluation.

All gains are evaluated against the exact spherical-wave channel regardless of
which model a beamformer was designed from. Per-subcarrier gains come from
one cascade kernel (`_cascade_sums`), a matrix product of block-start and offset
phasor tables. The beam pattern (`multi_beam_pattern`) runs chunks of plane points,
sized by one byte budget, on a thread per usable CPU, and sums each point over the
elements with `np.einsum`: no BLAS, so its gains do not depend on the split.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .beamforming import BeamformerConfig
from .channel import element_distances
from .geometry import FrequencyGrid, Scene, element_positions

GAIN_TOL = 1e-9
# bytes of beam-pattern temporaries that all worker threads together may hold
_PLANE_BYTES = 32 * 2**20


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


def _worker_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _symmetric_triple(freqs: np.ndarray) -> tuple[int, int, int] | None:
    """Indices (low, centre, high) if freqs is f_p - d, f_p, f_p + d in some order, else None.

    The two offsets must be equal in floating point and d below f_p / 2: then the
    three phases k*r lie within a factor of 2 of each other, so the differences
    `_plane_sums` takes between them are exact (Sterbenz).
    """
    if freqs.size != 3:
        return None
    lo, mid, hi = (int(i) for i in np.argsort(freqs, kind="stable"))
    if freqs[mid] - freqs[lo] != freqs[hi] - freqs[mid] or 2 * freqs[lo] <= freqs[mid]:
        return None
    return lo, mid, hi


def _plane_sums(
    r: np.ndarray, ks: np.ndarray, weights: np.ndarray, triple: tuple[int, int, int] | None,
    phasor: np.ndarray, step: np.ndarray | None,
) -> np.ndarray:
    """|sum over the elements of exp(j k_i r_pn) w_cin| for distances r of shape (P, N).

    Returns shape (C, F, P) for weights of shape (C, F, N). r is overwritten, and
    so are the complex scratch tables phasor and step of r's shape (step is only
    used, and may be None, without a symmetric triple).
    Every phase is rounded as fl(k_i r), whichever path runs. With a symmetric
    triple only two exponentials are taken: E = exp(j theta_p) at the centre and
    D = exp(j delta) with delta = theta_lo - theta_p. The low frequency is E*D and
    the high one E*conj(D)*(1 + j eps), where eps = theta_hi - theta_p + delta is
    a few ulp of theta (1 + j eps is exp(j eps) to ~eps^2). Pure NumPy and no
    BLAS, so it is safe on worker threads, and `einsum` adds each sum up in
    element order.
    """
    sums = np.empty((weights.shape[0], ks.size, r.shape[0]), dtype=complex)
    if triple is None:
        for i, k in enumerate(ks):
            phasor.real = 0.0
            np.multiply(r, k, out=phasor.imag)
            np.exp(phasor, out=phasor)
            sums[:, i] = np.einsum("pn,cn->cp", phasor, weights[:, i])
        return np.abs(sums)
    lo, mid, hi = triple
    phasor.real = 0.0
    step.real = 0.0
    np.multiply(r, ks[mid], out=phasor.imag)  # theta_p
    np.multiply(r, ks[lo], out=step.imag)
    step.imag -= phasor.imag  # delta
    r *= ks[hi]
    r -= phasor.imag
    r += step.imag  # eps
    np.exp(phasor, out=phasor)
    np.exp(step, out=step)
    sums[:, mid] = np.einsum("pn,cn->cp", phasor, weights[:, mid])
    sums[:, lo] = np.einsum("pn,pn,cn->cp", phasor, step, weights[:, lo])
    np.conjugate(step, out=step)
    step *= phasor
    # step *= 1 + j*eps, in place; phasor's real half is free scratch from here on
    np.multiply(step.imag, r, out=phasor.real)
    r *= step.real
    step.real -= phasor.real
    step.imag += r
    sums[:, hi] = np.einsum("pn,cn->cp", step, weights[:, hi])
    return np.abs(sums)


def multi_beam_pattern(
    scene: Scene,
    grid: FrequencyGrid,
    configs: dict[str, BeamformerConfig],
    frequencies: Sequence[float],
    plane: EvaluationPlane,
) -> dict[str, BeamPattern]:
    """Beam patterns for several configurations over one plane.

    The plane points are split into one contiguous share per usable CPU, each run
    on its own thread in chunks sized so that all workers together hold at most
    _PLANE_BYTES of temporaries. Element-to-point distances and the point phasors of each chunk
    are computed once and shared across all configurations. A frequency list
    f_p - d, f_p, f_p + d (any order, d < f_p / 2) takes 2 complex exponentials
    per chunk instead of 3; see `_plane_sums`. Gains do not depend on the chunk
    size, the worker count or the BLAS build.
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    ks = 2 * np.pi * freqs / grid.c
    pos = element_positions(scene.layout)
    el_y = pos[:, 1]
    dz2 = (plane.z - pos[:, 2]) ** 2
    r_bs = element_distances(scene, "bs")
    # per-(config, frequency) element weights: cascade BS side x reflection
    weights = np.empty((len(configs), freqs.size, r_bs.size), dtype=complex)
    for w, config in zip(weights, configs.values()):
        anchor, tau = config.anchor_and_delays()
        w[:] = np.exp(1j * (anchor - 2 * np.pi * freqs[:, None] * (r_bs / grid.c + tau)))

    xs, ys = plane.x_coords(), plane.y_coords()
    px2 = np.repeat(xs, plane.n_y) ** 2
    py = np.tile(ys, plane.n_x)
    n_pts = px2.size
    triple = _symmetric_triple(freqs)
    # distances (8 B) plus one complex table (16 B) per exponential held at once
    point_bytes = r_bs.size * (8 + 16 * (1 if triple is None else 2))
    workers = min(_worker_count(), n_pts)
    size = max(1, _PLANE_BYTES // (workers * point_bytes))
    # Each worker takes one contiguous share of the points, chunk by chunk, in
    # scratch tables allocated here on the calling thread. Workers allocate only
    # small per-chunk sums, so the process peak does not depend on which thread
    # runs when (per-thread allocator arenas kept tens of MB of freed tables).
    bounds = [n_pts * w // workers for w in range(workers + 1)]
    rows = min(size, -(-n_pts // workers))
    scratch = [
        (np.empty((rows, r_bs.size)), np.empty((rows, r_bs.size), dtype=complex),
         None if triple is None else np.empty((rows, r_bs.size), dtype=complex))
        for _ in range(workers)
    ]
    sums = np.empty((len(configs), freqs.size, n_pts))

    def share_sums(w: int) -> None:
        r_buf, phasor, step = scratch[w]
        for start in range(bounds[w], bounds[w + 1], size):
            sl = slice(start, min(start + size, bounds[w + 1]))
            n = sl.stop - sl.start
            r = r_buf[:n]
            np.subtract(py[sl, None], el_y, out=r)
            np.square(r, out=r)
            np.add(px2[sl, None], r, out=r)
            r += dz2
            np.sqrt(r, out=r)
            sums[:, :, sl] = _plane_sums(
                r, ks, weights, triple, phasor[:n], None if step is None else step[:n]
            )

    # imported here: at module load it would add ~7 ms to every CLI start
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(share_sums, range(workers)))  # re-raises the first worker exception

    out = {}
    for name, s in zip(configs, sums):
        g = np.minimum(s.reshape(freqs.size, plane.n_x, plane.n_y) / r_bs.size, 1.0)
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
) -> BeamPattern:
    """Array gain over a plane: user-side distances replaced by plane points."""
    return multi_beam_pattern(scene, grid, {"only": config}, frequencies, plane)["only"]


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
