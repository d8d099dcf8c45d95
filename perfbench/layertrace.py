"""Per-layer timing and counters for mxblock, measured from outside the library.

``Tracer.install()`` replaces every public function of the seven mxblock
modules with a timing wrapper, at every module attribute that refers to it.
``from .formats import grid_index_array`` binds the function in
``mxblock.quantize`` as well, and calls resolve through that binding, so
wrapping only the defining module would miss them. Each binding gets its own
wrapper, which is how a call is attributed to its caller module
(``quantize.qdq_views.from-decompose``).

A function counts as public when it is in its module's ``__all__`` or bound
by name in another mxblock module; ``cli.main`` is added as the root.

Stats are flat ``{name: float}`` per process:

- ``<layer>.<fn>.self_s``: call time minus the time of wrapped calls made
  inside it and minus the tracer's own counting work;
- ``<layer>.<fn>.calls`` and the counters below, summed over calls;
- the same keys with ``.from-<module>`` inserted after ``<fn>``;
- ``trace.covered_s``: every self time summed once, so
  ``covered_s / wall`` is the share of traced wall the layers account for.

Counters are computed here from arguments and return values, never read
from the library.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("formats", "quantize", "decompose", "corrections", "analysis",
          "tensorstore", "cli")

# E2M1 magnitude midpoints and the largest magnitude, restated rather than
# imported so the tie and saturation counts do not depend on the kernel.
_MIDPOINTS = np.array([0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0])
_Q_MAX = 6.0
# Every midpoint has at most two significant mantissa bits, so only values
# whose lower 50 mantissa bits are zero need the exact membership test.
_LOW_MANTISSA = np.uint64((1 << 50) - 1)
_CHUNK = 1 << 16


def _grid_counts(a, out):
    mag = np.asarray(a["mag"], dtype=np.float64).ravel()
    ties = saturated = 0
    # cache-sized chunks: one pass over a large array costs more than the rest
    for lo in range(0, mag.size, _CHUNK):
        m = mag[lo:lo + _CHUNK]
        short = m[(m.view(np.uint64) & _LOW_MANTISSA) == 0]
        ties += int(np.count_nonzero(np.isin(short, _MIDPOINTS)))
        saturated += int(np.count_nonzero(m > _Q_MAX))
    return {"elems": mag.size, "ties": ties, "saturated": saturated}


def _qdq_counts(a, out):
    view = a["view"]
    nonzero = np.asarray(view.nonzero)
    return {"blocks": view.blocks.shape[0],
            "zero_blocks": int(nonzero.size - np.count_nonzero(nonzero)),
            "deadzone_elems": int(np.count_nonzero(out[2]))}


def _mbs_counts(a, out):
    macros = out[1].size
    trials = macros * 256 if a["mode"] == "exhaustive" else 0
    return {"macros": macros, "macro_trials": trials}


def _temp_counts(a, out):
    evals = out.n_pairs * out.draws if out.sigma_eta > 0 else out.n_pairs
    return {"sigmoid_evals": evals}


COUNTERS = {
    "formats.grid_index_array": _grid_counts,
    "formats.ceil_scale_array":
        lambda a, out: {"blocks": np.asarray(a["s_star"]).size},
    "quantize.block_view": lambda a, out: {"bytes_in": np.asarray(a["x"]).nbytes},
    "quantize.qdq_views": _qdq_counts,
    "corrections.mbs_qdq": _mbs_counts,
    "analysis.effective_temperature_fit": _temp_counts,
    "tensorstore.load_container":
        lambda a, out: {"bytes_read": os.path.getsize(a["path"])},
}


class Tracer:
    """Wraps mxblock's public functions; ``stats`` holds what they saw."""

    def __init__(self) -> None:
        self.stats: dict[str, float] = {}
        self._open: list[float] = []    # wrapped-child time of each open call

    def _add(self, name: str, value: float) -> None:
        self.stats[name] = self.stats.get(name, 0.0) + value

    def install(self) -> None:
        """Wrap in place; meant for a process that exits after one run."""
        mods = {layer: importlib.import_module(f"mxblock.{layer}") for layer in LAYERS}
        sites = [importlib.import_module("mxblock"), *mods.values()]
        for layer, mod in mods.items():
            exported = set(getattr(mod, "__all__", ()))
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                bindings = [(site, attr) for site in sites
                            for attr, val in list(vars(site).items()) if val is fn]
                imported = any(site is not mod for site, _ in bindings)
                root = layer == "cli" and name == "main"
                if not (name in exported or imported or root):
                    continue
                for site, attr in bindings:
                    caller = site.__name__.rpartition(".")[2]
                    setattr(site, attr, self._wrap(fn, f"{layer}.{name}", f"from-{caller}"))

    def _wrap(self, fn, key: str, site: str):
        count = COUNTERS.get(key)
        signature = inspect.signature(fn) if count else None
        keys = (key, f"{key}.{site}")
        opened = self._open
        add = self._add
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                total = clock() - t0
                own = total - opened.pop()
                for k in keys:
                    add(k + ".self_s", own)
                    add(k + ".calls", 1)
                add("trace.covered_s", own)
                if opened:
                    opened[-1] += total
            if count is not None:
                t1 = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, value in count(bound.arguments, out).items():
                    for k in keys:
                        add(f"{k}.{name}", value)
                spent = clock() - t1
                add("trace.count_s", spent)
                if opened:
                    opened[-1] += spent
            return out

        return traced

