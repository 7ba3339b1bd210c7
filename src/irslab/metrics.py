"""Array-gain, beam-pattern and achievable-rate evaluation.

All gains are evaluated against the exact spherical-wave channel regardless of
which model a beamformer was designed from. Per-subcarrier gains come from
one cascade kernel (`_cascade_sums`). Below _NUFFT_FROM subcarriers it is a BLAS
matrix product of block-start and offset phasor tables, each built by doubling
from ~log2 of its length exponentials (`_powers`); from there on, a non-uniform
FFT (`_nufft`) built from `np.bincount` and NumPy's FFT, with no BLAS and a cost
nearly flat in the subcarrier count. The beam pattern (`multi_beam_pattern`) runs
chunks of plane points, sized by one byte budget, on a thread per usable CPU, and
sums each point over the elements with `np.einsum`: no BLAS, so its gains do not
depend on the split. Both kernels take their exponentials from a table-driven
exp(j theta) (`_cis`), faster than libm's complex exp and within 1e-15 of it. A
kernel call whose phases may exceed the table's exact range (|theta| > 2.06e5
rad, r ~ 31 m at 315 GHz) takes libm's exp throughout (`_cis_for`). The beam
pattern's per-element weights are libm's exp.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .beamforming import BeamformerConfig
from .channel import element_distances
from .geometry import SPEED_OF_LIGHT, EvaluationPlane, FrequencyGrid, Scene, element_positions

GAIN_TOL = 1e-9
# bytes of beam-pattern temporaries that all worker threads together may hold: the
# ~20 passes of `_cis` over each chunk run fastest when its tables stay in L2
# (8 MiB beat 4, 6, 12, 16 and 32 MiB on a 2-core Xeon with 2 MiB of L2 per core)
_PLANE_BYTES = 8 * 2**20

# exp(j theta) from a table of M points per turn, see `_cis`
_CIS_M = 2**14
_CIS_C1 = float(np.float32(2 * np.pi / _CIS_M))  # 2*pi/M to 24 bits
# the rest of 2*pi/M; 2.449...e-16 is 2*pi - fl(2*pi)
_CIS_C2 = (2 * np.pi / _CIS_M - _CIS_C1) + 2.4492935982947064e-16 / _CIS_M
# |theta| up to here keeps n <= 2**29, so n*C1 is exact
_CIS_RANGE = 2**29 * 2 * np.pi / _CIS_M
_CIS_SHIFT = 1.5 * 2**52  # x + SHIFT - SHIFT is rint(x) for |x| < 2**51
# a quarter turn from libm, the rest by exact rotations: T[i] = exp(2j*pi*i/M)
_CIS_TABLE = np.exp(2j * np.pi / _CIS_M * np.arange(_CIS_M // 4))
_CIS_TABLE = np.concatenate([_CIS_TABLE, 1j * _CIS_TABLE, -_CIS_TABLE, -1j * _CIS_TABLE])

# subcarrier count from which `_cascade_sums` takes `_nufft`: on 10^4 elements (2-core
# Intel Xeon with AVX-512, NumPy 2.4.6 on scipy-openblas 0.3.31, quartiles of 120 calls)
# the doubling path took 3.5-3.7 ms against 3.6-3.8 at 256 subcarriers (16 x 16 tables),
# 3.8-4.1 against 3.4-3.7 at 257, 3.9-4.1 against 3.5-3.8 at 272 and 14-16 against
# 4.1-4.5 at 2048
_NUFFT_FROM = 257
# `_nufft` kernel width in grid points and its shape: on the 830 of 2,000 random scenes
# at or above the crossover, w = 14 drifted from the direct formula by 1.7e-12 of the
# weight mass, w = 16 and w = 18 by 2.4e-13, the rounding of the reference's own phases
_NUFFT_W = 16
_NUFFT_BETA = 2.30 * _NUFFT_W


def _check_gains(gains: np.ndarray) -> None:
    # written so that NaN fails the check
    if not np.all((gains >= -GAIN_TOL) & (gains <= 1 + GAIN_TOL)):
        raise ValueError("gains must lie in [0, 1]")


def _normalized_gains(sums: np.ndarray, n: int) -> np.ndarray:
    """Normalized gains min(|sum| / n, 1) of kernel sums over n elements, checked."""
    gains = np.minimum(np.abs(sums) / n, 1.0)
    _check_gains(gains)
    return gains


@dataclass(frozen=True)
class Peak:
    """Location and value of a beam pattern's maximum at one of its frequencies."""

    x: float
    y: float
    gain: float
    ix: int
    iy: int


@dataclass(frozen=True)
class BeamPattern:
    """Gains over an evaluation plane, shape (F, n_x, n_y), and each frequency's peak."""

    gains: np.ndarray
    peaks: tuple[Peak, ...]

    def __post_init__(self) -> None:
        _check_gains(self.gains)


def _powers(step: np.ndarray, count: int, cis: Callable[..., None]) -> np.ndarray:
    """exp(1j*i*step) for i < count, shape (count, *step.shape), by doubling (Knuth, TAOCP
    vol. 2, 4.6.3): out[m:2m] = out[:m] * exp(1j*(m*step)) with m*step exact, so entry i is a
    product of popcount(i) exponentials and no error builds up along the table. Each
    exponential is cis (`_cis` or `_cis_exp`, see `_cis_for`) at every phase m*step."""
    out = np.empty((count, *step.shape), dtype=complex)
    out[0] = 1.0
    m = 1
    while m < count:
        np.multiply(out[:min(m, count - m)], _exp_j(m * step, cis), out=out[m:2 * m])
        m *= 2
    return out


def _exp_j(theta: np.ndarray, cis: Callable[..., None]) -> np.ndarray:
    """exp(1j*theta) by cis (`_cis` or `_cis_exp`); theta is overwritten."""
    out = np.empty(theta.shape, dtype=complex)
    cis(theta, out, np.empty_like(theta), np.empty_like(theta))
    return out


def _cascade_sums(
    config: BeamformerConfig, r_bs: np.ndarray, r_user: np.ndarray,
    f0: float, df: float, count: int, weights: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Sums over the elements of w_n exp(j*(anchor_n - 2*pi*f_i*delta_n)), f_i = f0 + i*df.

    delta_n = (r_bs,n - r_user,n)/c + tau_n and c_n = w_n exp(j*(anchor_n - 2*pi*f0*delta_n)),
    so sum i is sum_n c_n exp(2j*pi*i*u_n) with u_n = -df*delta_n. Below _NUFFT_FROM
    subcarriers, i = b*B + k, B = ceil(sqrt(count)), is c_n Z_n^b z_n^k, z_n = exp(2j*pi*u_n)
    and Z_n = z_n^B: two `_powers` tables, ~log2(count) exponentials per element, and one
    BLAS matrix product give every sum. From _NUFFT_FROM on, `_nufft` takes the sums in
    O(N + count log count), the modes centred on count//2 by one more phasor per element.
    Every exponential of a call is `_cis`, or, if any phase may exceed _CIS_RANGE, libm's exp.
    """
    anchor, tau = config.anchor_and_delays()
    delta = (r_bs - r_user) / SPEED_OF_LIGHT + tau
    # a table phase is m*step with m*block < count for the rows and m < block <= count
    # for the offsets, and the centring phase is (count//2)*df*delta, so none exceeds this
    cis = _cis_for(np.abs(anchor).max() + 2 * np.pi * (f0 + count * df) * np.abs(delta).max())
    if count >= _NUFFT_FROM:
        c = weights * _exp_j(anchor - 2 * np.pi * f0 * delta, cis)
        c *= _exp_j(-2 * np.pi * (count // 2) * df * delta, cis)
        return _nufft(c, -df * delta, count)
    block = int(np.ceil(np.sqrt(count)))
    rows = _powers(-2 * np.pi * block * df * delta, -(-count // block), cis)
    rows *= weights * _exp_j(anchor - 2 * np.pi * f0 * delta, cis)
    return (rows @ _powers(-2 * np.pi * df * delta, block, cis).T).ravel()[:count]


def _semicircle(z: np.ndarray) -> np.ndarray:
    """The `_nufft` kernel exp(beta*(sqrt(1 - z^2) - 1)) at |z| <= 1, in place of z."""
    np.square(z, out=z)
    np.subtract(1.0, z, out=z)
    np.sqrt(z, out=z)
    z -= 1.0
    z *= _NUFFT_BETA
    return np.exp(z, out=z)


def _nufft(c: np.ndarray, u: np.ndarray, count: int) -> np.ndarray:
    """Sums over n of c_n exp(2j*pi*k*u_n) for k = -(count//2) ... count - count//2 - 1.

    A type-1 non-uniform FFT (Dutt & Rokhlin, 1993) with the "exponential of semicircle"
    kernel (Barnett, Magland & af Klinteberg, 2019): each c_n is spread over the w grid
    points nearest t_n = u_n*G on a periodic grid of G >= 2*count points, one FFT of the
    grid gives every sum times the kernel's transform, and dividing by the DFT of the
    kernel's samples at integer offsets takes that out. O(N*w + G log G) for N elements,
    within ~4e-15 of sum |c_n| of exact sums; no BLAS, so the bytes do not depend on it.
    The spreading runs one grid offset j at a time over (N,) scratch vectors: (N, w)
    tables were slower, each fresh one costing more than the pass that fills it.
    """
    w = _NUFFT_W
    g = 1 << (2 * count - 1).bit_length()
    t = u * g  # exact: g is a power of two
    start = np.ceil(t - w / 2)
    offset, first = (start - t) * (2 / w), start.astype(np.int64)
    z, part, idx = np.empty_like(offset), np.empty_like(offset), np.empty_like(first)
    grid = np.zeros(g, dtype=complex)
    for j in range(w):
        # grid point start_n + j, at (start_n + j - t_n)*2/w in [-1, 1] of the kernel
        phi = _semicircle(np.add(offset, j * (2 / w), out=z))
        np.add(first, j, out=idx)
        idx &= g - 1
        grid.real += np.bincount(idx, np.multiply(phi, c.real, out=part), g)
        grid.imag += np.bincount(idx, np.multiply(phi, c.imag, out=part), g)
    samples = np.zeros(g)
    m = np.arange(-(w // 2), w // 2 + 1)
    samples[m] = _semicircle(m * (2 / w))
    modes = (np.arange(count) - count // 2) & (g - 1)
    return (np.fft.ifft(grid) * g)[modes] / np.fft.fft(samples).real[modes]


def normalized_array_gain(
    scene: Scene, grid: FrequencyGrid, config: BeamformerConfig, f: float
) -> float:
    """Normalized array gain (1/N)|sum of cascade phasors| at f: a one-subcarrier profile."""
    if not (np.isfinite(f) and f > 0):  # named here: the grid below would blame its f_c
        raise ValueError(f"frequency f={f!r} Hz must be finite and above 0 Hz")
    return float(gain_profile(scene, replace(grid, f_c=f, m_count=1), config)[0])


def gain_profile(scene: Scene, grid: FrequencyGrid, config: BeamformerConfig) -> np.ndarray:
    """Normalized array gain at every subcarrier of the grid, shape (M,), each in [0, 1]."""
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    df = grid.bandwidth / grid.m_count
    sums = _cascade_sums(config, r_bs, r_user, grid.frequency(0), df, grid.m_count)
    return _normalized_gains(sums, r_bs.size)


def edge_gain(scene: Scene, grid: FrequencyGrid, config: BeamformerConfig) -> float:
    """Smaller of the two edge-subcarrier normalized gains, from one 2-subcarrier call."""
    if grid.m_count < 2:
        raise ValueError("edge gain needs at least two subcarriers")
    f1, f_m = grid.frequency(0), grid.frequency(grid.m_count - 1)
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    sums = _cascade_sums(config, r_bs, r_user, f1, f_m - f1, 2)
    return float(_normalized_gains(sums, r_bs.size).min())


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


def _cis(theta: np.ndarray, out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Writes exp(j theta) to out for |theta| <= _CIS_RANGE; theta, a and b are overwritten.

    exp(j theta) = T[n mod M] * exp(j rho) with n = rint(theta*M/(2*pi)) and
    rho = (theta - n*C1) - n*C2, |rho| <= pi/M. n*C1 and the first difference are
    exact (Cody & Waite), and exp(j rho) = (1 - rho^2/2) + j*rho*(1 - rho^2/6) to
    6e-17 (Tang's table-driven method). Adding 1.5 * 2**52 rounds theta*M/(2*pi) to n
    and leaves n mod M in the low bits of the sum. 20 passes and one gather took
    14-17 ns per element against 42-58 ns for libm's complex exp (2-core Xeon).
    """
    np.multiply(theta, _CIS_M / (2 * np.pi), out=a)
    a += _CIS_SHIFT
    np.subtract(a, _CIS_SHIFT, out=b)  # n
    idx = a.view(np.int64)
    idx &= _CIS_M - 1
    np.take(_CIS_TABLE, idx, out=out, mode="clip")  # "raise" would buffer out
    np.multiply(b, _CIS_C1, out=a)
    theta -= a
    b *= _CIS_C2
    theta -= b  # rho
    np.square(theta, out=b)
    np.multiply(b, -1 / 6, out=a)
    a += 1.0
    a *= theta  # sin(rho)
    b *= -0.5
    b += 1.0  # cos(rho)
    # out *= cos + j sin, in place
    np.multiply(out.imag, a, out=theta)
    out.imag *= b
    a *= out.real
    out.imag += a
    out.real *= b
    out.real -= theta


def _cis_exp(theta: np.ndarray, out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """`_cis` by libm's complex exp, at any phase."""
    out.real = 0.0
    out.imag = theta
    np.exp(out, out=out)


def _cis_for(phase_bound: float) -> Callable[..., None]:
    """`_cis` for phases all within +-phase_bound <= _CIS_RANGE, else (NaN too) `_cis_exp`."""
    return _cis if phase_bound <= _CIS_RANGE else _cis_exp


def _plane_sums(
    r: np.ndarray, ks: np.ndarray, weights: np.ndarray, triple: tuple[int, int, int] | None,
    cis: Callable[..., None], floats: np.ndarray, phasor: np.ndarray, step: np.ndarray | None,
) -> np.ndarray:
    """Sums over the elements of exp(j k_i r_pn) w_cin for distances r of shape (P, N).

    Returns shape (C, F, P) for weights of shape (C, F, N). cis is `_cis` or
    `_cis_exp`. r is overwritten, and so are the scratch tables: floats of shape
    (3, P, N) or, with a symmetric triple, (4, P, N), and the complex phasor and
    step of r's shape (step is only used, and may be None, without a triple).
    Every phase is rounded as fl(k_i r), whichever path runs. With a symmetric
    triple only two exponentials are taken: E = exp(j theta_p) at the centre and
    D = exp(j delta) with delta = theta_lo - theta_p. The low frequency is E*D and
    the high one E*conj(D)*(1 + j eps), where eps = theta_hi - theta_p + delta is
    a few ulp of theta (1 + j eps is exp(j eps) to ~eps^2). Pure NumPy and no
    BLAS, so it is safe on worker threads, and `einsum` adds each sum up in
    element order.
    """
    sums = np.empty((weights.shape[0], ks.size, r.shape[0]), dtype=complex)
    theta, a, b = floats[:3]
    if triple is None:
        for i, k in enumerate(ks):
            np.multiply(r, k, out=theta)
            cis(theta, phasor, a, b)
            sums[:, i] = np.einsum("pn,cn->cp", phasor, weights[:, i])
        return sums
    lo, mid, hi = triple
    delta = floats[3]
    np.multiply(r, ks[mid], out=theta)  # theta_p
    np.multiply(r, ks[lo], out=delta)
    delta -= theta
    r *= ks[hi]
    r -= theta
    r += delta  # eps
    cis(theta, phasor, a, b)
    cis(delta, step, a, b)
    sums[:, mid] = np.einsum("pn,cn->cp", phasor, weights[:, mid])
    sums[:, lo] = np.einsum("pn,pn,cn->cp", phasor, step, weights[:, lo])
    np.conjugate(step, out=step)
    step *= phasor
    # step *= 1 + j*eps, in place
    np.multiply(step.imag, r, out=theta)
    r *= step.real
    step.real -= theta
    step.imag += r
    sums[:, hi] = np.einsum("pn,cn->cp", step, weights[:, hi])
    return sums


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
    per chunk instead of 3; see `_plane_sums`. Each exponential is `_cis` when
    the largest phase, bounded from the plane and panel corners, is within
    _CIS_RANGE, and libm's exp otherwise. The workers write complex sums, and
    one checked reduction turns the whole block into gains after they join.
    Gains do not depend on the chunk size, the worker count or the BLAS build.
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    if freqs.size == 0:
        raise ValueError("beam pattern needs at least one frequency, got []")
    for f in freqs.tolist():
        if not (np.isfinite(f) and f > 0):  # README: every frequency is positive
            raise ValueError(f"frequency {f!r} Hz must be finite and above 0 Hz")
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
    # distances and 3 float tables (8 B each), one more float table and one more
    # complex table (16 B) with a symmetric triple
    n_float, n_complex = (4, 1) if triple is None else (5, 2)
    point_bytes = r_bs.size * (8 * n_float + 16 * n_complex)
    # distance is convex, so the largest sits at a plane corner and a panel corner
    y_far = max(ys[-1] - el_y.min(), el_y.max() - ys[0])
    r_far = np.sqrt(px2.max() + y_far**2 + dz2.max())
    cis = _cis_for(ks.max() * r_far)
    workers = min(_worker_count(), n_pts)
    size = max(1, _PLANE_BYTES // (workers * point_bytes))
    # Each worker takes one contiguous share of the points, chunk by chunk, in
    # scratch tables allocated here on the calling thread. Workers allocate only
    # small per-chunk sums, so the process peak does not depend on which thread
    # runs when (per-thread allocator arenas kept tens of MB of freed tables).
    bounds = [n_pts * w // workers for w in range(workers + 1)]
    rows = min(size, -(-n_pts // workers))
    scratch = [
        (np.empty((n_float, rows, r_bs.size)), np.empty((n_complex, rows, r_bs.size), dtype=complex))
        for _ in range(workers)
    ]
    sums = np.empty((len(configs), freqs.size, n_pts), dtype=complex)

    def share_sums(w: int) -> None:
        float_buf, table_buf = scratch[w]
        for start in range(bounds[w], bounds[w + 1], size):
            sl = slice(start, min(start + size, bounds[w + 1]))
            n = sl.stop - sl.start
            r = float_buf[0, :n]
            np.subtract(py[sl, None], el_y, out=r)
            np.square(r, out=r)
            np.add(px2[sl, None], r, out=r)
            r += dz2
            np.sqrt(r, out=r)
            sums[:, :, sl] = _plane_sums(
                r, ks, weights, triple, cis, float_buf[1:, :n], table_buf[0, :n],
                None if triple is None else table_buf[1, :n],
            )

    # imported here: at module load it would add ~7 ms to every CLI start
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(share_sums, range(workers)))  # re-raises the first worker exception

    def peak(g: np.ndarray) -> Peak:  # the first largest gain of one frequency's plane
        ix, iy = np.unravel_index(int(np.argmax(g)), g.shape)
        return Peak(float(xs[ix]), float(ys[iy]), float(g[ix, iy]), int(ix), int(iy))

    gains = _normalized_gains(sums, r_bs.size).reshape(*sums.shape[:2], plane.n_x, plane.n_y)
    return {name: BeamPattern(g, tuple(map(peak, g))) for name, g in zip(configs, gains)}


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
    """|amplitude-weighted cascaded gain| per subcarrier, shape (M,), checked to be finite.

    Uses the un-normalized channel amplitudes alpha_m/r on both hops, so the
    result is the magnitude of the end-to-end complex gain.
    """
    r_bs, r_user = element_distances(scene, "bs"), element_distances(scene, "user")
    f, df = grid.frequencies, grid.bandwidth / grid.m_count
    sums = _cascade_sums(config, r_bs, r_user, f[0], df, f.size, 1 / (r_bs * r_user))
    magnitudes = (grid.c / (4.0 * np.pi * f)) ** 2 * np.abs(sums)
    if not np.all(np.isfinite(magnitudes)):
        raise ValueError("gain magnitudes must be finite")
    return magnitudes


def rates_from_gain(
    gain_mag: np.ndarray, grid: FrequencyGrid, p_bs: float, noise_density: float
) -> np.ndarray:
    """Per-subcarrier rate for a precomputed cascaded gain magnitude."""
    if not (np.isfinite(p_bs) and p_bs > 0):
        raise ValueError("transmit power must be positive")
    if not (np.isfinite(noise_density) and noise_density > 0):
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
) -> np.ndarray:
    """Spectral efficiency per subcarrier, shape (M,), with power split equally over the
    subcarriers; the mean rate is its `.mean()`.

    Per subcarrier: log2(1 + (P/M) |amplitude-weighted cascaded gain|^2 /
    (N0 * B/M)).
    """
    return rates_from_gain(cascade_gain_magnitudes(scene, grid, config), grid, p_bs, noise_density)
