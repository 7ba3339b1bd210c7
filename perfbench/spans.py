"""Span recorder for the traced run.

Every public function of an irslab module, and every public method of a
public class it defines (plus ``__post_init__``, where the dataclasses
validate), is wrapped under each name it is bound to: ``experiments`` does
``from .metrics import gain_profile``, so ``irslab.experiments.gain_profile``
is replaced as well as ``irslab.metrics.gain_profile``. A span records the
name, start, end, parent span and op id. Spans stay in memory; ``dump``
writes them as JSON once the run ends. Nothing under ``src/`` changes.

Counts that the per-layer metrics need are taken at the same boundaries,
from the arguments of the wrapped call (see ``HOOKS``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "scenario", "experiments", "beamforming", "channel", "metrics", "geometry")

# Metric kernels whose work is counted from sizes; a kernel called by another
# kernel (beam_pattern -> multi_beam_pattern) is counted once, at the outer one.
KERNELS = {
    "metrics.beam_pattern", "metrics.multi_beam_pattern", "metrics.gain_profile",
    "metrics.cascade_gain_magnitudes", "metrics.normalized_array_gain", "metrics.achievable_rate",
}
SERIALIZERS = {
    "experiments.ResultTable.to_csv", "experiments.ResultTable.to_json",
    "experiments.ResultTable.__post_init__",
}
COMPLEX_BYTES = 16


class SpanRecorder:
    """Records spans of wrapped irslab calls while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op]
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._seen: set = set()
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # pass -> counter -> value

    # --- wrapping ---

    def _wrap(self, layer: str, name: str, fn, hook=None):
        rec = self
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(rec.spans)
            span = [name, layer, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.op]
            rec.spans.append(span)
            rec._stack.append(index)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                rec._stack.pop()
                if hook is not None:
                    hook(rec, signature.bind(*args, **kwargs))

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public callables of every layer at every binding site."""
        modules = {n: m for n, m in sys.modules.items() if n == "irslab" or n.startswith("irslab.")}
        for layer in LAYERS:
            mod = modules[f"irslab.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(layer, name, obj, HOOKS.get(name))
                    for site in modules.values():
                        for bound, value in list(vars(site).items()):
                            if value is obj:
                                self._set(site, bound, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self._wrap(layer, name, member))
            elif isinstance(member, (staticmethod, classmethod)):
                self._set(cls, attr, type(member)(self._wrap(layer, name, member.__func__)))
            elif isinstance(member, property) and member.fget is not None:
                self._set(cls, attr, property(self._wrap(layer, name, member.fget), member.fset,
                                              member.fdel, member.__doc__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- counts taken at the boundaries ---

    def inside_kernel(self) -> bool:
        return any(self.spans[i][0] in KERNELS for i in self._stack)

    def add(self, counter: str, value: float) -> None:
        self.counts[self.op[0]][counter] += value

    def peak(self, counter: str, value: float) -> None:
        slot = self.counts[self.op[0]]
        slot[counter] = max(slot[counter], value)

    # --- results ---

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover, per span."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def dump(self, path: Path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op")
        Path(path).write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _size_hook(evals, temp_elements):
    """Count phasor evaluations and the largest complex temporary of a kernel call."""

    def hook(rec: SpanRecorder, bound: inspect.BoundArguments) -> None:
        if rec.inside_kernel():
            return
        bound.apply_defaults()
        a = bound.arguments
        rec.add("metrics.phasor_evals", evals(a))
        rec.peak("metrics.bytes_computed", temp_elements(a) * COMPLEX_BYTES)

    return hook


def _n(a) -> int:
    return a["scene"].layout.n_y * a["scene"].layout.n_z


def _plane_points(a) -> int:
    return a["plane"].n_x * a["plane"].n_y


def _beam_evals(a) -> int:
    configs = len(a["configs"]) if "configs" in a else 1
    freqs = len(list(a["frequencies"]))
    return _n(a) * freqs * (_plane_points(a) + configs)


def _beam_temp(a) -> int:
    return _n(a) * min(a.get("chunk", _plane_points(a)), _plane_points(a))


def _subcarriers(a) -> int:
    return _n(a) * a["grid"].m_count


def _distance_hook(rec: SpanRecorder, bound: inspect.BoundArguments) -> None:
    """Count element_distances calls that repeat an endpoint already computed in this op."""
    scene, endpoint = bound.arguments["scene"], bound.arguments["endpoint"]
    p = scene.bs if endpoint == "bs" else scene.user
    lay = scene.layout
    key = (rec.op, p.x, p.y, p.z, lay.n_y, lay.n_z, lay.d)
    rec.add("channel.element_distances", 1)
    if key in rec._seen:
        rec.add("channel.repeated_distances", 1)
    rec._seen.add(key)


HOOKS = {
    "metrics.beam_pattern": _size_hook(_beam_evals, _beam_temp),
    "metrics.multi_beam_pattern": _size_hook(_beam_evals, _beam_temp),
    "metrics.gain_profile": _size_hook(_subcarriers, _subcarriers),
    "metrics.cascade_gain_magnitudes": _size_hook(_subcarriers, _subcarriers),
    "metrics.achievable_rate": _size_hook(_subcarriers, _subcarriers),
    "metrics.normalized_array_gain": _size_hook(_n, _n),
    "channel.element_distances": _distance_hook,
}
