"""Beamformer construction: phase-only narrowband focusing, the double-layer
delta-delay (DLDD) network, and the per-element true-time-delay benchmark.

Delay sign handling: delta delays may come out negative; hardware realizes the
magnitude and a 2-output switch routes the signal accordingly. Designs store
the signed values, expose physical (non-negative) module delays, and warn with
the offending module labels when a delay family is not sign-consistent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .channel import CascadedDecomposition, cascaded_decomposition, path_length_difference
from .geometry import SPEED_OF_LIGHT, FrequencyGrid, Scene, SubsurfacePartition


def _saturate(delays: np.ndarray, clamp: Optional[float]) -> np.ndarray:
    """Signed delays with each magnitude capped at `clamp` (None: unchanged)."""
    if clamp is None:
        return delays
    return np.sign(delays) * np.minimum(np.abs(delays), clamp)


class SignConsistencyWarning(UserWarning):
    """A delta-delay family mixes signs; magnitude routing proceeds per module."""

    def __init__(self, message: str, offending_modules: tuple[str, ...]):
        super().__init__(message)
        self.offending_modules = offending_modules


@dataclass(frozen=True)
class PhaseShiftConfig:
    """Per-element reflection phase shifts, radians in [0, 2*pi)."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        if self.theta.ndim != 1:
            raise ValueError("theta must be a flat per-element array")
        # written so that NaN fails the check
        if not np.all((self.theta >= 0) & (self.theta < 2 * np.pi)):
            raise ValueError("phases must lie in [0, 2*pi)")


@dataclass(frozen=True)
class DlddDelayNetwork:
    """Two-layer delta-delay network over the k_y x k_z sub-surfaces of `partition`.

    first_layer holds the k_y - 1 signed row-to-row deltas (built from the
    first column); second_layer holds k_y groups of k_z - 1 signed deltas.
    switch_sign records the sign of the dedicated sub-surface delays the
    network reproduces; physical module delays are the magnitudes.
    """

    partition: SubsurfacePartition
    first_layer: np.ndarray
    second_layer: np.ndarray
    switch_sign: int

    def __post_init__(self) -> None:
        k_y, k_z = self.partition.k_y, self.partition.k_z
        if self.first_layer.shape != (k_y - 1,):
            raise ValueError("first layer must hold k_y - 1 deltas")
        if self.second_layer.shape != (k_y, k_z - 1):
            raise ValueError("second layer must hold k_y groups of k_z - 1 deltas")
        if not (np.all(np.isfinite(self.first_layer)) and np.all(np.isfinite(self.second_layer))):
            raise ValueError("delta delays must be finite")
        if self.switch_sign not in (-1, 1):
            raise ValueError("switch_sign must be +1 or -1")

    def module_delays(self) -> np.ndarray:
        """Physical (routed, non-negative) delays of all K-1 modules, flat."""
        return np.abs(np.concatenate([self.first_layer, self.second_layer.reshape(-1)]))

    def cumulative_delays(self, clamp: Optional[float] = None) -> np.ndarray:
        """Signed cumulative delay per sub-surface, shape (k_y, k_z).

        Relative to sub-surface (1, 1). With `clamp`, each module magnitude
        saturates at the given value (seconds) before accumulation.
        """
        rows = np.concatenate([[0.0], np.cumsum(_saturate(self.first_layer, clamp))])
        cols = np.cumsum(_saturate(self.second_layer, clamp), axis=1)
        cols = np.concatenate([np.zeros((self.partition.k_y, 1)), cols], axis=1)
        return rows[:, None] + cols

    def element_delays(self, clamp: Optional[float]) -> np.ndarray:
        """Signed delay per element, shape (N,): each sub-surface's cumulative delay."""
        return self.partition.to_elements(self.cumulative_delays(clamp)[:, :, None, None])

    def max_module_delay(self) -> float:
        """Largest routed delta a single module must realize, seconds (0 without modules)."""
        return float(self.module_delays().max(initial=0.0))

    def as_dict(self) -> dict:
        """The top-level export keys of this network: its partition, then the network."""
        p = self.partition
        return {
            "partition": {"k_y": p.k_y, "k_z": p.k_z, "s": p.s},
            "delay_network": {
                "type": "dldd",
                "switch_sign": self.switch_sign,
                "first_layer_s": self.first_layer.tolist(),
                "second_layer_s": self.second_layer.tolist(),
            },
        }


@dataclass(frozen=True)
class PerElementDelayConfig:
    """One dedicated delay per element, seconds (signed design values)."""

    tau: np.ndarray

    def __post_init__(self) -> None:
        if self.tau.ndim != 1 or not np.all(np.isfinite(self.tau)):
            raise ValueError("tau must be a finite flat per-element array")

    def element_delays(self, clamp: Optional[float]) -> np.ndarray:
        """The dedicated delays, each saturated at `clamp`."""
        return _saturate(self.tau, clamp)

    def max_module_delay(self) -> float:
        """Largest dedicated element delay magnitude, seconds."""
        return float(np.abs(self.tau).max())

    def as_dict(self) -> dict:
        """The top-level export key of this network."""
        return {"delay_network": {"type": "per-element", "tau_s": self.tau.tolist()}}


DelayNetwork = Union[None, DlddDelayNetwork, PerElementDelayConfig]


@dataclass(frozen=True)
class BeamformerConfig:
    """A complete reflection configuration: phases plus an optional delay network.

    `delay_cap` is the largest delay a single physical module can realize,
    seconds (None: unlimited); every module saturates at it.
    """

    design: str
    phases: PhaseShiftConfig
    delay_network: DelayNetwork
    design_frequency: float
    delay_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.design_frequency) and self.design_frequency > 0):
            raise ValueError(f"design_frequency={self.design_frequency!r} Hz must be finite "
                             "and above 0 Hz")
        if self.delay_cap is not None and not (np.isfinite(self.delay_cap) and self.delay_cap >= 0):
            raise ValueError("delay_cap must be a finite, non-negative number of seconds")
        if self.delay_network is not None and self.element_delays().shape != (self.n_elements,):
            raise ValueError("delay network inconsistent with the phase table size")

    @property
    def n_elements(self) -> int:
        return self.phases.theta.shape[0]

    def element_delays(self) -> np.ndarray:
        """Signed delay realized by each element, shape (N,), row-major order.

        Every physical module delay saturates at `delay_cap` before routing.
        """
        if self.delay_network is None:
            return np.zeros(self.n_elements)
        return self.delay_network.element_delays(self.delay_cap)

    def anchor_and_delays(self) -> tuple[np.ndarray, np.ndarray]:
        """Frequency-flat anchor phase and realized delay of every element.

        The reflection phase at frequency f is anchor - 2*pi*f*tau. Under a
        `delay_cap` the delays saturate and the anchor re-folds the
        clamped-away delay at the design frequency, so the residual
        dispersion scales with f - f_c, as in a recalibrated range-limited
        delay line.
        """
        tau = self.element_delays()
        capped = self.delay_network is not None and self.delay_cap is not None
        tau_ideal = self.delay_network.element_delays(None) if capped else tau
        anchor = self.phases.theta - 2 * np.pi * self.design_frequency * (tau_ideal - tau)
        return anchor, tau

    def as_dict(self) -> dict:
        """JSON-ready description (phases in radians, delays in seconds)."""
        out: dict = {
            "design": self.design,
            "design_frequency_hz": self.design_frequency,
            "phases_rad": self.phases.theta.tolist(),
        }
        net = self.delay_network
        out.update({"delay_network": {"type": "none"}} if net is None else net.as_dict())
        return out


@dataclass(frozen=True)
class SignReport:
    """Outcome of the delay sign-consistency check."""

    consistent: bool
    sign: int
    offending_modules: tuple[str, ...] = ()


def _wrap_phase(theta: np.ndarray) -> np.ndarray:
    wrapped = np.mod(theta, 2 * np.pi)
    # mod can round up to exactly 2*pi for tiny negative inputs
    wrapped[wrapped >= 2 * np.pi] = 0.0
    return wrapped


def narrowband_design(scene: Scene, grid: FrequencyGrid) -> BeamformerConfig:
    """Phase-only focusing at f_c: theta = (2*pi/lambda_c)(r_bs - r_user) mod 2*pi.

    Cancels the cascaded phase exactly at the center frequency at every
    element, so the normalized array gain at f_c is 1.
    """
    theta = _wrap_phase(2 * np.pi / grid.lambda_c * path_length_difference(scene))
    return BeamformerConfig(
        design="narrowband",
        phases=PhaseShiftConfig(theta),
        delay_network=None,
        design_frequency=grid.f_c,
    )


def required_subsurface_delays(decomp: CascadedDecomposition) -> np.ndarray:
    """Dedicated delay per sub-surface, tau_k = -inter_delta_r_k / c, shape (k_y, k_z)."""
    return -decomp.inter_delta_r / SPEED_OF_LIGHT


def _family_signs(values: np.ndarray) -> tuple[bool, int]:
    """Whether all nonzero entries share a sign, and that (majority) sign."""
    pos = values > 0
    neg = values < 0
    if not neg.any():
        return True, 1
    if not pos.any():
        return True, -1
    return False, 1 if pos.sum() >= neg.sum() else -1


def sign_consistency_check(decomp: CascadedDecomposition) -> SignReport:
    """Verify the sign structure the 2-output switches rely on.

    Checks that the dedicated sub-surface delays, the first-layer deltas and
    the second-layer deltas are each internally sign-consistent. Returns the
    sign of the dedicated-delay family; inconsistency is an outcome, not an
    error, and the offending modules are named in the report.
    """
    tau = required_subsurface_delays(decomp)
    first = tau[1:, 0] - tau[:-1, 0]
    second = tau[:, 1:] - tau[:, :-1]

    offending: list[str] = []
    all_ok = True
    for name, values in (("tau", tau), ("first", first), ("second", second)):
        ok, sign = _family_signs(values.reshape(-1))
        if not ok:
            all_ok = False
            bad = np.argwhere(np.sign(values) == -sign)
            offending.extend(
                f"{name}[{','.join(str(i + 1) for i in idx)}]" for idx in bad
            )
    _, tau_sign = _family_signs(tau.reshape(-1))
    return SignReport(consistent=all_ok, sign=tau_sign, offending_modules=tuple(offending))


def dldd_design(
    scene: Scene,
    grid: FrequencyGrid,
    partition: Optional[SubsurfacePartition] = None,
) -> BeamformerConfig:
    """Double-layer delta-delay design over the sub-surface grid.

    Delta delays cancel the inter-sub-surface path difference at every
    frequency (first layer row-to-row from the first column, second layer
    within each row); phase shifts cancel the intra-sub-surface part at the
    center frequency. Sign inconsistency triggers a SignConsistencyWarning
    and the design proceeds with per-module magnitude routing.
    """
    if partition is None:
        partition = scene.partition
    decomp = cascaded_decomposition(scene, partition)
    tau = required_subsurface_delays(decomp)
    report = sign_consistency_check(decomp)
    if not report.consistent:
        warnings.warn(
            SignConsistencyWarning(
                "delta-delay signs are not consistent; routing magnitudes per module "
                f"(offending: {', '.join(report.offending_modules)})",
                report.offending_modules,
            ),
            stacklevel=2,
        )
    network = DlddDelayNetwork(
        partition=partition,
        first_layer=tau[1:, 0] - tau[:-1, 0],
        second_layer=tau[:, 1:] - tau[:, :-1],
        switch_sign=report.sign,
    )
    theta = _wrap_phase(-2 * np.pi * grid.f_c / grid.c * decomp.intra_delta_phi)
    return BeamformerConfig(
        design="dldd",
        phases=PhaseShiftConfig(theta),
        delay_network=network,
        design_frequency=grid.f_c,
    )


def cumulative_delay(network: DlddDelayNetwork, ky: int, kz: int) -> float:
    """Cumulative delay reaching sub-surface (ky, kz), 1-based, seconds.

    Sum of the first ky-1 first-layer deltas and the first kz-1 deltas of
    row ky's second-layer group; zero at (1, 1).
    """
    p = network.partition
    if not 1 <= ky <= p.k_y:
        raise ValueError(f"ky={ky} outside [1, {p.k_y}]")
    if not 1 <= kz <= p.k_z:
        raise ValueError(f"kz={kz} outside [1, {p.k_z}]")
    return float(
        network.first_layer[: ky - 1].sum() + network.second_layer[ky - 1, : kz - 1].sum()
    )


def per_element_td_design(scene: Scene, grid: FrequencyGrid) -> BeamformerConfig:
    """Benchmark with a dedicated delay per element: tau_n = -(r_bs - r_user)/c.

    Cancels the cascaded phase at every frequency, so the normalized array
    gain is 1 at all subcarriers.
    """
    tau = -path_length_difference(scene) / grid.c
    theta = np.zeros_like(tau)
    return BeamformerConfig(
        design="per-element",
        phases=PhaseShiftConfig(theta),
        delay_network=PerElementDelayConfig(tau),
        design_frequency=grid.f_c,
    )


def effective_reflection(config: BeamformerConfig, f: float) -> np.ndarray:
    """Per-element unit reflection coefficients at frequency f, shape (N,).

    Uncapped this is exp(j*(theta_n - 2*pi*f*tau_n)); a `delay_cap`
    re-anchors as in BeamformerConfig.anchor_and_delays.
    """
    anchor, tau = config.anchor_and_delays()
    return np.exp(1j * (anchor - 2 * np.pi * f * tau))


def td_module_count(partition: SubsurfacePartition) -> int:
    """Number of delta-delay modules: (k_y - 1) + k_y*(k_z - 1) = K - 1."""
    return (partition.k_y - 1) + partition.k_y * (partition.k_z - 1)


def required_delay_range(config: BeamformerConfig) -> float:
    """Largest delay magnitude a single module must realize, seconds.

    For the DLDD network that is the largest routed delta; for the
    per-element benchmark the largest dedicated element delay.
    """
    if config.delay_network is None:
        raise ValueError("configuration has no delay network")
    return config.delay_network.max_module_delay()
