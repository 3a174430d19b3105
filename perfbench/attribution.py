"""Charge host self time from a deterministic profile to simulator layers.

The layers are the packages under ``src/repro/`` (plus the ``faults``
module).  A profiled function defined in one of them is *owned* by that
layer.  Every other function -- builtins, the standard library,
generated ``__init__`` methods, ``repro/units.py``, ``repro/errors.py``
and the benchmark's own code -- is *transparent*: its self time goes to
whatever called it, split by the profiler's per-caller breakdown.  So
when a digest moves from ``repro.algos`` into ``hashlib``, its time
moves to the caller's layer instead of vanishing.  Time with no layer
anywhere up its call chain (the benchmark's op wrappers) is ``other``.

The input is the ``stats`` mapping of :mod:`cProfile`/:mod:`pstats`::

    {func: (primitive_calls, calls, self_s, cumulative_s, callers)}
    callers = {caller_func: (calls, primitive_calls, self_s, cumulative_s)}

with ``func = (filename, first_line, name)``.  For a generator function
the profiler counts every resumption as a call.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

LAYERS = ("sim", "algos", "net", "pcie", "memory", "devices", "core", "host",
          "apps", "schemes", "analysis", "trace", "metrics", "faults")
OTHER = "other"
# Modules of the ``repro`` package root charged to their callers.
TRANSPARENT_MODULES = ("units", "errors", "__init__")

Func = Tuple[str, int, str]


def layer_of(func: Func, repro_dir: str) -> Optional[str]:
    """The layer that owns ``func``, or None when it is transparent."""
    filename = func[0]
    prefix = repro_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    name = parts[0] if len(parts) > 1 else os.path.splitext(parts[0])[0]
    if len(parts) == 1 and name in TRANSPARENT_MODULES:
        return None
    return name if name in LAYERS else OTHER


@dataclass
class Attribution:
    """Per-layer self seconds and entering calls of one profile."""

    self_s: Dict[str, float] = field(default_factory=dict)
    calls_in: Dict[str, int] = field(default_factory=dict)
    total_s: float = 0.0

    def share(self, layer: str) -> float:
        return self.self_s[layer] / self.total_s if self.total_s else 0.0


def attribute(stats: dict, repro_dir: str) -> Attribution:
    """Charge every function's self time to a layer (see module doc)."""
    owner = {func: layer_of(func, repro_dir) for func in stats}
    shares: Dict[Func, Dict[str, float]] = {}

    def split(func: Func, visiting: set) -> Optional[Dict[str, float]]:
        """Fractions of ``func``'s self time each layer is charged."""
        if owner[func] is not None:
            return {owner[func]: 1.0}
        if func in shares:
            return shares[func]
        if func in visiting:
            return None  # a cycle of transparent callers; skip the edge
        visiting.add(func)
        callers = stats[func][4]
        by_time = any(edge[2] > 0 for edge in callers.values())
        charged: Dict[str, float] = defaultdict(float)
        weight_sum = 0.0
        for caller, edge in sorted(callers.items()):
            if caller == func or caller not in stats:
                continue
            weight = edge[2] if by_time else edge[0]
            caller_split = split(caller, visiting)
            if caller_split is None or weight <= 0:
                continue
            for layer, fraction in caller_split.items():
                charged[layer] += weight * fraction
            weight_sum += weight
        visiting.discard(func)
        result = ({layer: value / weight_sum
                   for layer, value in sorted(charged.items())}
                  if weight_sum > 0 else {OTHER: 1.0})
        shares[func] = result
        return result

    def calling_layer(func: Func) -> str:
        if owner[func] is not None:
            return owner[func]
        fractions = split(func, set()) or {OTHER: 1.0}
        return max(sorted(fractions), key=fractions.__getitem__)

    out = Attribution(self_s=dict.fromkeys(LAYERS + (OTHER,), 0.0),
                      calls_in=dict.fromkeys(LAYERS + (OTHER,), 0))
    for func in sorted(stats):
        _prim, calls, self_s, _cum, callers = stats[func]
        out.total_s += self_s
        for layer, fraction in (split(func, set()) or {OTHER: 1.0}).items():
            out.self_s[layer] += self_s * fraction
        layer = owner[func]
        if layer is None:
            continue
        from_known = 0
        for caller, edge in callers.items():
            if caller not in stats:
                continue
            from_known += edge[0]
            if calling_layer(caller) != layer:
                out.calls_in[layer] += edge[0]
        # Calls from frames entered before profiling began come from
        # outside every layer.
        out.calls_in[layer] += max(0, calls - from_known)
    return out


def func_key(function) -> Func:
    """The profiler's key for a Python function or method."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_count(stats: dict, *functions) -> int:
    """Total profiled calls of ``functions`` (0 for any never called)."""
    return sum(stats[func_key(fn)][1] for fn in functions
               if func_key(fn) in stats)
