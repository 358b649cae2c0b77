"""Per-layer tracing by wrapping public ``bem`` functions from outside.

Each traced name is looked up in its home module; every ``bem.*`` module
namespace that binds that same function object gets the timing wrapper
while the tracer is installed, so calls made from inside the package (for
example ``trainer.train`` calling ``estimate_prior``) are seen as well as
the benchmark's own calls. A name the package no longer defines is
reported as absent with zero calls instead of failing, so the package can
drop or rename functions without edits here.

Spans nest on a stack: a span's self time is its duration minus the
durations of the spans opened directly inside it.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# Layer (module) -> public functions whose calls are timed.
TRACED = {
    "elbo": ("elbo_pair_accumulate_grads", "estimate_prior", "draw_pair_eps",
             "infer_posterior"),
    "nets": ("adam_step", "net_forward", "net_forward_rows"),
    "trainer": ("train", "sample_paired_batches", "refine"),
    "dataio": ("load_table", "write_table", "align", "normalize_rows",
               "save_model", "load_model"),
    "evalkit": ("hit_recall", "train_classifier", "classify_accuracy"),
    "synthgen": ("generate",),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    # Work counted at the call boundary by an optional counter hook.
    work: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Install with ``with Tracer(counters) as t:``; read ``t.stats``.

    ``counters`` maps a qualified name (``"dataio.load_table"``) to a hook
    ``hook(args, kwargs, result) -> dict[str, float]`` whose values are
    summed into ``SpanStats.work``.
    """

    def __init__(self, counters=None):
        self.counters = dict(counters or {})
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        stats = self.stats[qualname]
        stack = self._stack
        hook = self.counters.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - children
                if stack:
                    stack[-1] += dt
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    stats.work[key] = stats.work.get(key, 0.0) + value
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bem" or name.startswith("bem."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"bem.{layer}")
            for name in names:
                qualname = f"{layer}.{name}"
                self.stats[qualname] = SpanStats()
                fn = getattr(home, name, None) if home is not None else None
                if not callable(fn):
                    self.absent.append(qualname)
                    continue
                wrapper = self._wrap(qualname, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, attr, value))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
