"""Array-gain, beam-pattern and achievable-rate evaluation.

All gains are evaluated against the exact spherical-wave channel regardless of
which model a beamformer was designed from. Per-subcarrier gains come from
one cascade kernel (`_cascade_sums`). Below _NUFFT_FROM subcarriers it is the
direct sum, one exponential per element and subcarrier; from there on, a
non-uniform FFT (`_nufft`) built from `np.add.reduceat` and NumPy's FFT, with a
cost nearly flat in the subcarrier count. The beam pattern (`multi_beam_pattern`)
runs chunks of plane points, sized by one byte budget, on a thread per usable CPU.
Both kernels sum over the elements with `np.einsum` or the FFT and call no BLAS,
so their gains depend neither on the BLAS build nor on the split. Both take their
exponentials from a table-driven exp(j theta) (`_cis`), faster than libm's complex
exp and within 1e-15 of it. A kernel call whose phases may exceed the table's
exact range (|theta| > 2.06e5 rad, r ~ 31 m at 315 GHz) takes libm's exp
throughout (`_cis_for`). The beam pattern's per-element weights are libm's exp.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .beamforming import BeamformerConfig
from .channel import element_distances
from .geometry import (
    SPEED_OF_LIGHT,
    EvaluationPlane,
    FrequencyGrid,
    Scene,
    element_axes,
    panel_distances,
)

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

# subcarrier count from which `_cascade_sums` takes `_nufft` instead of the direct sum.
# On the default panel (10^4 elements, 2-core Xeon with AVX-512, NumPy 2.4.6, DLDD,
# quartiles of 80 alternating in-process calls) the direct sum took 0.9-1.2 ms against
# 1.6-1.9 for `_nufft` at 4 subcarriers, 1.3-1.8 against 1.7-2.3 at 5, 1.7-2.5 against
# 1.9-2.7 at 6, 1.7-2.3 against 1.6-2.2 at 7 (the crossover) and 2.1-2.8 against 1.6-2.1
# at 8, then ~0.3 ms more per subcarrier (43 against 2.3 ms at 128). The split sits at
# 5, below the crossover, so that the direct sum holds at most 4 phasors per element and
# the kernel's memory stays flat along the band (under 2 MiB traced on the default panel)
_NUFFT_FROM = 5
# `_nufft` kernel width in grid points and its shape. Against the direct formula on the
# 830 of 2,000 random scenes at or above the crossover, w = 14 drifted by 1.7e-12 of the
# weight mass and w = 16 and w = 18 both by 2.4e-13: the rounding of the reference's own
# phases, so that test cannot tell 16 from 18. The kernel's own truncation near the band
# edge, on the default DLDD design at G = 2*count (computed in long double), is 1.3e-14
# of sum |c_n| at w = 16 and 2.8e-15 at w = 18; a tighter bound needs w, beta or G anew
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
    subcarriers the sums are that formula itself: one exponential per element and
    subcarrier, summed over the elements in element order by `np.einsum`. From _NUFFT_FROM
    on, `_nufft` takes them in O(N + count log count), the modes centred on count//2 by one
    more phasor per element. Neither path calls BLAS. Every exponential of a call is
    `_cis`, or, if any phase may exceed _CIS_RANGE, libm's exp.
    """
    anchor, tau = config.anchor_and_delays()
    delta = (r_bs - r_user) / SPEED_OF_LIGHT + tau
    # no phase exceeds this: the direct ones lie within f_i < f0 + count*df, and the
    # centring phase is (count//2)*df*delta
    cis = _cis_for(np.abs(anchor).max() + 2 * np.pi * (f0 + count * df) * np.abs(delta).max())
    if count < _NUFFT_FROM:
        f = f0 + df * np.arange(count)
        phasors = _exp_j(anchor - np.multiply.outer(2 * np.pi * f, delta), cis)
        return np.einsum("in,n->i", phasors, np.broadcast_to(weights, delta.shape))
    c = weights * _exp_j(anchor - 2 * np.pi * f0 * delta, cis)
    c *= _exp_j(-2 * np.pi * (count // 2) * df * delta, cis)
    return _nufft(c, -df * delta, count)


def _es_kernel(o: np.ndarray, q: np.ndarray | float, j, out: np.ndarray) -> np.ndarray:
    """The `_nufft` kernel times exp(beta), exp(sqrt(beta^2*(1 - z^2))), at z = o + j*(2/w),
    |z| <= 1, in out; q = beta^2*(1 - o^2). Six passes, 1 - z^2 expanded in o and o^2."""
    s = j * (2 / _NUFFT_W)
    np.multiply(o, -2 * _NUFFT_BETA**2 * s, out=out)
    out += q
    out -= (_NUFFT_BETA * s) ** 2
    np.maximum(out, 0.0, out=out)  # rounding: near |z| = 1, or t - w/2 leaving z < -1
    np.sqrt(out, out=out)
    return np.exp(out, out=out)


def _nufft(c: np.ndarray, u: np.ndarray, count: int) -> np.ndarray:
    """Sums over n of c_n exp(2j*pi*k*u_n) for k = -(count//2) ... count - count//2 - 1.

    A type-1 non-uniform FFT (Dutt & Rokhlin, 1993) with the "exponential of semicircle"
    kernel (Barnett, Magland & af Klinteberg, 2019): each c_n is spread over the w grid
    points nearest t_n = u_n*G on a periodic grid of G >= max(2*count, 2w) points (the
    floor keeps the kernel's w + 1 samples apart at small counts), one FFT of the grid
    gives every sum times the kernel's transform, and dividing by the DFT of the
    kernel's samples at integer offsets takes that out. O(N log N + (N + L)*w + G log G)
    for N elements in L distinct first grid cells, with no BLAS. As in FINUFFT, the
    elements are sorted by first cell once; per offset j, `np.add.reduceat` sums each run
    of equal cells contiguously and pairwise, and one `np.bincount` adds the (w, L) run
    sums onto the grid. The delay designs put 10^4 elements in 1 to 19 cells at 2048
    subcarriers. Against exact sums: 5e-16 of sum |c_n| on 10^4 scattered points, 2.7e-15
    on 10^4 at u = 0 (grid nodes, spread with the very samples divided out), 1.8e-14 on
    the default DLDD design, 1.3e-14 of it the w = 16 kernel's truncation near the band
    edge at G = 2*count (the same with the kernel in long double).
    """
    w = _NUFFT_W
    g = max(1 << (2 * count - 1).bit_length(), 2 * w)
    t = u * g  # exact: g is a power of two
    start = np.ceil(t - w / 2)
    cell = start.astype(np.int64) & (g - 1)
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    heads = np.flatnonzero(np.diff(cell, prepend=-1))  # where each run of equal cells starts
    cell = cell[heads]
    # grid point start_n + j lies at z = o_n + j*(2/w) in [-1, 1] of the kernel
    o = (start - t)[order] * (2 / w)
    q = _NUFFT_BETA**2 * (1 - o * o)
    scale = np.exp(-_NUFFT_BETA)
    re, im = c.real[order] * scale, c.imag[order] * scale
    phi, part, runs = np.empty_like(o), np.empty_like(o), np.empty((2, w, cell.size))
    for j in range(w):  # runs[:, j]: each run's sum onto grid point cell + j
        _es_kernel(o, q, j, phi)
        np.add.reduceat(np.multiply(phi, re, out=part), heads, out=runs[0, j])
        np.add.reduceat(np.multiply(phi, im, out=part), heads, out=runs[1, j])
    idx = ((cell + np.arange(w)[:, None]) & (g - 1)).ravel()
    grid = np.empty(g, dtype=complex)
    grid.real, grid.imag = (np.bincount(idx, r.ravel(), g) for r in runs)
    samples = np.zeros(g)
    m = np.arange(w + 1)
    samples[m - w // 2] = _es_kernel(np.full(w + 1, -1.0), 0.0, m, np.empty(w + 1)) * scale
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
    el_y, el_z = element_axes(scene.layout)
    r_bs = element_distances(scene, "bs")
    # per-(config, frequency) element weights: cascade BS side x reflection
    weights = np.empty((len(configs), freqs.size, r_bs.size), dtype=complex)
    for w, config in zip(weights, configs.values()):
        anchor, tau = config.anchor_and_delays()
        w[:] = np.exp(1j * (anchor - 2 * np.pi * freqs[:, None] * (r_bs / grid.c + tau)))

    xs, ys = plane.x_coords(), plane.y_coords()
    px = np.repeat(xs, plane.n_y)
    py = np.tile(ys, plane.n_x)
    n_pts = px.size
    triple = _symmetric_triple(freqs)
    # distances and 3 float tables (8 B each), one more float table and one more
    # complex table (16 B) with a symmetric triple
    n_float, n_complex = (4, 1) if triple is None else (5, 2)
    point_bytes = r_bs.size * (8 * n_float + 16 * n_complex)
    # distance is convex, so the largest sits at a plane corner and a panel corner
    y_far = max(ys[-1] - el_y.min(), el_y.max() - ys[0])
    r_far = np.sqrt((xs**2).max() + y_far**2 + ((plane.z - el_z) ** 2).max())
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
            r = panel_distances(scene.layout, px[sl], py[sl], plane.z, out=float_buf[0, :n])
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
