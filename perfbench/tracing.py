"""Per-layer tracing from outside the library.

The tracer replaces each listed public function, in every lostructure
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent span, op id) and a few sizes read from the call's
arguments and return value.  Spans stay in memory; self time is a span's
duration minus the time covered by its child spans.  uninstall() puts every
original function back.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# module -> function -> sizes read from (args, kwargs, result)
TRACED: dict[str, dict[str, Optional[Callable]]] = {
    "distributions": {
        "weighted_sum_law": lambda a, k, res: {"atoms": res.support_size},
        "levy_measure_star": None,
        "symmetrize": None,
        "tail_mass": None,
    },
    "concentration": {
        "conc_interval": lambda a, k, res: {"atoms": _arg(a, k, 0, "F").support_size},
        "conc_zero": None,
    },
    "beta": {
        "beta": lambda a, k, res: {"candidates": res.candidates_searched, "rank": _arg(a, k, 2, "r")},
        "mass_outside": None,
    },
    "gap": {
        "coverage_count": lambda a, k, res: {
            "queries": _arg(a, k, 2, "a").n,
            "set_points": len(_arg(a, k, 0, "Kimg")),
        },
        "lattice_points": lambda a, k, res: {"points": len(res)},
        "image": lambda a, k, res: {"points": len(res)},
        "cgap_image": lambda a, k, res: {"points": len(res)},
        "is_proper": None,
        "size": None,
        "mahler_sandwich": None,
        "embed_proper": None,
    },
    "recovery": {
        "recover": None,
        "recover_multid": None,
        "select_m": None,
    },
    "harness": {
        "gen_planted": None,
        "window_params_for_outliers": None,
        "product_coordinate_params": None,
    },
}
# functions that run while the pool is built, not inside ops
SETUP_LAYER = "harness"


@dataclasses.dataclass
class Span:
    name: str
    op: Optional[int]
    parent: int  # index into Tracer.spans, -1 at top level
    start: int  # perf_counter_ns
    end: int = 0
    sizes: Optional[dict] = None
    error: Optional[str] = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: Optional[int] = None  # id of the op in progress; None in set-up
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        """Wrap every TRACED function wherever a lostructure module binds it.

        Modules come from importlib: the package attribute `lostructure.beta`
        is the function, not the module.
        """
        modules = [m for name, m in list(sys.modules.items()) if name == "lostructure" or name.startswith("lostructure.")]
        for mod_name, fns in TRACED.items():
            home = importlib.import_module(f"lostructure.{mod_name}")
            for fn_name, sizes in fns.items():
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, sizes)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable, sizes: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1, 0)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if sizes is not None:
                span.sizes = sizes(args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dataclasses.asdict(s)}) + "\n")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric layer_metrics() reports."""
    out = []
    for mod_name, fns in TRACED.items():
        per = "1/setup" if mod_name == SETUP_LAYER else "1/op"
        for fn_name in fns:
            out += [(f"{mod_name}.{fn_name}.{q}", u) for q, u in (("self_share", "frac"), ("calls", per), ("errors", "count"))]
    out += [(f"beta.beta_r{r}.{q}", u) for r in (1, 2) for q, u in (("self_share", "frac"), ("calls", "1/op"), ("candidates", "1/op"))]
    out += [
        ("distributions.weighted_sum_law.atoms", "1/op"),
        ("concentration.conc_interval.atoms", "1/op"),
        ("beta.beta.candidates", "1/op"),
        ("gap.coverage_count.queries", "1/op"),
        ("gap.coverage_count.set_points", "1/op"),
        ("gap.lattice_points.points", "1/op"),
        ("gap.image.points", "1/op"),
        ("gap.cgap_image.points", "1/op"),
        # filled in by the caller: image-cache statistics of the op phase
        # and the cost of tracing itself
        ("gap.image_table.hits", "1/op"),
        ("gap.image_table.misses", "1/op"),
        ("gap.image_table.hit_ratio", "frac"),
        ("trace_overhead_frac", "frac"),
    ]
    return out


def layer_metrics(spans: list[Span], ops: int, op_time_s: float, setup_time_s: float) -> dict[str, float]:
    """Per-layer totals from the spans.

    self_share is a function's self time as a share of the ops' total time
    (of the set-up's time for the set-up layer).  Calls and sizes
    are per op (per set-up for the set-up layer); errors are totals.
    """
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    acc: dict[str, float] = {name: 0.0 for name, _ in metric_names()}
    for s, c in zip(spans, child):
        in_setup = s.name.startswith(SETUP_LAYER + ".")
        if (s.op is None) != in_setup:
            continue
        wall, count = (setup_time_s, 1) if in_setup else (op_time_s, ops)
        acc[f"{s.name}.errors"] += s.error is not None
        keys = [s.name]
        if s.name == "beta.beta" and s.sizes and s.sizes["rank"] in (1, 2):
            keys.append(f"beta.beta_r{s.sizes['rank']}")
        for key in keys:
            acc[f"{key}.self_share"] += (s.end - s.start - c) / 1e9 / wall
            acc[f"{key}.calls"] += 1 / count
            for q, v in (s.sizes or {}).items():
                if f"{key}.{q}" in acc:
                    acc[f"{key}.{q}"] += v / count
    return acc
