"""Spans recorded around nlslab's public layer functions, from outside the package.

A ``Tracer`` replaces every module attribute bound to a traced function with
a timing wrapper, including names bound by ``from .x import f`` (for example
``plane.count_points`` and ``cli.strichartz_scan``), and restores them on
``uninstall``.  Spans are kept in memory as ``{name, start, end, parent}``,
with ``parent`` the index of the enclosing span or ``None``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: Public functions timed per layer module.  ``fourier`` has none: its
#: constructors run inside the strichartz and galerkin spans.
TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("run_experiment", "render"),
    "lattice": ("count_points", "scan_hypothesis_h"),
    "plane": ("calibrate_reduction", "verify_reduction", "count_plane_slice"),
    "strichartz": ("strichartz_scan", "l6_time_integral_exact"),
    "trilinear": ("normalized_sup_trend", "sup_count_A"),
    "symbols": ("bound_scan_symbols", "lambda_n_evaluate", "energy_e1i"),
    "galerkin": ("integrate_galerkin", "ftc_residual", "hamiltonian_energy", "energy_drift"),
}


class Tracer:
    """Collects spans while installed; ``spans`` survives ``uninstall``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"nlslab.{layer}") for layer in TRACED}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nlslab" or key.startswith("nlslab."))]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        inner = [(max(s, span["start"]), min(e, span["end"])) for s, e in children[i]]
        out[span["name"]] += span["end"] - span["start"] - _covered([iv for iv in inner if iv[0] < iv[1]])
    return dict(out)


def covered_share(spans: list[dict], wall: float) -> float:
    """Share of ``wall`` covered by spans outside the ``cli`` layer."""
    own = [(s["start"], s["end"]) for s in spans if not s["name"].startswith("cli.")]
    return _covered(own) / wall if wall > 0 else 0.0
