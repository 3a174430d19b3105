"""The simlint rule catalog: every invariant, one class each.

Three families (see ``docs/lint.md`` for the full catalog with
examples):

* **DET** — determinism: anything whose result can differ between two
  same-seed runs (process-global RNG, wall clocks, ``id()`` keys, set
  iteration order, float equality on timestamps) is banned from
  simulation code.
* **SIM** — scheduling: the event queue belongs to
  :mod:`repro.sim.kernel`; model code must neither manipulate it
  directly nor block the host thread, and starts a process nobody
  waits on with ``sim.spawn``.
* **PLANE** — plane contracts: metric names, trace event types and
  fault sites are closed, documented catalogs; a string literal that
  is not in its catalog would raise at runtime (or worse, silently
  drift the docs), so it is rejected statically.

Every rule checks *syntax that can be judged locally*; the PLANE rules
additionally consult the machine-readable catalog exports
(:func:`repro.metrics.catalog.metric_names`,
:func:`repro.trace.events.event_type_names`,
:func:`repro.faults.fault_site_names`) — cross-module semantic checks.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Tuple

from repro.faults import fault_site_names
from repro.lint.engine import ModuleContext, Rule, register
from repro.metrics.catalog import metric_names
from repro.trace.events import event_type_names

Hit = Iterator[Tuple[ast.AST, str]]


def _is_id_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1 and not node.keywords)


def _contains_id_call(node: ast.AST) -> bool:
    return any(_is_id_call(child) for child in ast.walk(node))


def _first_str_arg(node: ast.Call):
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    return None


def _attr_call(node: ast.Call) -> str:
    """``attr`` when calling ``<expr>.attr(...)``, else ''."""
    return node.func.attr if isinstance(node.func, ast.Attribute) else ""


# ---------------------------------------------------------------------------
# E — engine-level findings
# ---------------------------------------------------------------------------

@register
class SyntaxErrorRule(Rule):
    """Emitted by the engine itself when a file fails to parse; has no
    checkers of its own (you cannot lint what you cannot parse)."""

    id = "E001"
    name = "syntax-error"
    rationale = ("a file that does not parse cannot be checked for any "
                 "other invariant")
    example = "def broken(:\n    pass"


# ---------------------------------------------------------------------------
# DET — determinism
# ---------------------------------------------------------------------------

@register
class UnseededRandom(Rule):
    id = "DET001"
    name = "unseeded-random"
    rationale = ("module-level random.* functions and unseeded Random() "
                 "draw from process-global state, so results depend on "
                 "import order and prior runs; all simulation randomness "
                 "must come from named repro.sim.rng.RngHub streams")
    example = "delay = random.randint(1, 10)"

    _MODULE_FNS = frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "expovariate", "gauss", "normalvariate",
        "lognormvariate", "betavariate", "paretovariate", "weibullvariate",
        "vonmisesvariate", "triangular", "getrandbits", "randbytes", "seed",
    })

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.sim.rng"

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Hit:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id == "random":
            if func.attr in self._MODULE_FNS:
                yield node, (f"random.{func.attr}() draws from the "
                             "process-global RNG; use an RngHub stream "
                             "(repro.sim.rng)")
            elif func.attr == "Random" and not node.args:
                yield node, ("unseeded random.Random() seeds from the OS; "
                             "pass an explicit seed or use an RngHub stream")

    def check_ImportFrom(self, node: ast.ImportFrom,
                         ctx: ModuleContext) -> Hit:
        if node.module == "random":
            names = sorted(alias.name for alias in node.names
                           if alias.name in self._MODULE_FNS)
            if names:
                yield node, ("importing module-level RNG functions "
                             f"({', '.join(names)}) from random; use an "
                             "RngHub stream (repro.sim.rng)")


@register
class WallClock(Rule):
    id = "DET002"
    name = "wall-clock"
    rationale = ("wall-clock reads leak host timing into simulation "
                 "state; simulated time is Simulator.now, and only the "
                 "experiments harness may measure real elapsed time")
    example = "started = time.time()"

    _TIME_FNS = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    })
    _DATETIME_FNS = frozenset({"now", "utcnow", "today"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.module.startswith("repro.experiments")

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Hit:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        if isinstance(value, ast.Name) and value.id == "time" \
                and func.attr in self._TIME_FNS:
            yield node, (f"time.{func.attr}() reads the wall clock; "
                         "simulation code must use Simulator.now")
        holder = None
        if isinstance(value, ast.Name):
            holder = value.id
        elif isinstance(value, ast.Attribute):
            holder = value.attr
        if holder in ("datetime", "date") \
                and func.attr in self._DATETIME_FNS:
            yield node, (f"{holder}.{func.attr}() reads the wall clock; "
                         "simulation code must use Simulator.now")


@register
class IdAsKey(Rule):
    id = "DET003"
    name = "id-as-key"
    rationale = ("id() is a memory address: keying state on it makes "
                 "dict/set iteration (and anything derived from it) vary "
                 "between runs — the PR 1 switch lock-order bug; use a "
                 "monotonic identifier assigned at creation (flow.uid, "
                 "d2d_id, Event.eid)")
    example = "self._streams[id(flow)] = stream"

    _KEY_METHODS = frozenset({"get", "pop", "setdefault", "add", "remove",
                              "discard", "__contains__"})

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Hit:
        if not _is_id_call(node):
            return
        parent = ctx.parent(node)
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            yield node, "id() used as a container subscript key"
            return
        if isinstance(parent, ast.Tuple):
            grandparent = ctx.parent(parent)
            if isinstance(grandparent, ast.Subscript) \
                    and grandparent.slice is parent:
                yield node, "id() used inside a subscript key tuple"
                return
        if isinstance(parent, ast.Dict) and node in parent.keys:
            yield node, "id() used as a dict-literal key"
            return
        if isinstance(parent, ast.Call) \
                and _attr_call(parent) in self._KEY_METHODS \
                and node in parent.args:
            yield node, (f"id() passed to .{_attr_call(parent)}() — a "
                         "keyed container lookup")
            return
        if isinstance(parent, ast.Compare) and parent.left is node and \
                any(isinstance(op, (ast.In, ast.NotIn))
                    for op in parent.ops):
            yield node, "id() tested for container membership"
            return
        # The assignment idiom `key = (..., id(flow))`: catch id()
        # anywhere inside the value of an Assign to a *key-named* target.
        ancestor = parent
        while ancestor is not None and not isinstance(ancestor, ast.stmt):
            ancestor = ctx.parent(ancestor)
        if isinstance(ancestor, ast.Assign):
            for target in ancestor.targets:
                if isinstance(target, ast.Name) and "key" in target.id:
                    yield node, (f"id() stored in {target.id!r}, which "
                                 "names a lookup key")
                    return


@register
class IdAsSortKey(Rule):
    id = "DET004"
    name = "id-as-sort-key"
    rationale = ("sorting by id() orders objects by allocation address, "
                 "which differs between runs even for identical inputs; "
                 "sort by a stable attribute (name, uid, sequence number)")
    example = "for link in sorted(links, key=id): ..."

    _SORTERS = frozenset({"sorted", "min", "max", "sort"})

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Hit:
        callee = ""
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        if callee not in self._SORTERS:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            if isinstance(value, ast.Name) and value.id == "id":
                yield node, f"{callee}(..., key=id) sorts by memory address"
            elif isinstance(value, ast.Lambda) \
                    and _contains_id_call(value.body):
                yield node, (f"{callee}() key function calls id(); sort "
                             "by a stable attribute instead")


@register
class IdInString(Rule):
    id = "DET005"
    name = "id-in-string"
    rationale = ("an id() rendered into a repr, log line or key string "
                 "changes on every run, breaking byte-identical trace "
                 "and log comparisons; render a sequence number instead "
                 "(e.g. Event.eid)")
    example = 'return f"<Event at {hex(id(self))}>"'

    _RENDERERS = frozenset({"hex", "str", "format", "repr", "oct"})

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Hit:
        if isinstance(node.func, ast.Name) \
                and node.func.id in self._RENDERERS \
                and node.args and _is_id_call(node.args[0]):
            yield node, (f"{node.func.id}(id(...)) renders a memory "
                         "address; use a run-stable sequence number")

    def check_FormattedValue(self, node: ast.FormattedValue,
                             ctx: ModuleContext) -> Hit:
        if _contains_id_call(node.value):
            yield node, ("id() interpolated into an f-string; use a "
                         "run-stable sequence number")


@register
class SetIteration(Rule):
    id = "DET006"
    name = "set-iteration"
    rationale = ("set iteration order depends on insertion history and "
                 "string hash randomization (PYTHONHASHSEED), so looping "
                 "over a bare set schedules events in a run-dependent "
                 "order; iterate sorted(s) or keep an insertion-ordered "
                 "dict")
    example = "for waiter in self._waiters_set: waiter.succeed()"

    _SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._set_names: set = set()
        self._set_attrs: set = set()
        for node in ast.walk(ctx.tree):
            value = None
            targets = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not self._is_set_expr(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self._set_names.add(target.id)
                elif isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    self._set_attrs.add(target.attr)

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in ("set", "frozenset"):
                return True
            # dataclasses.field(default_factory=set)
            if isinstance(node.func, ast.Name) and node.func.id == "field":
                for keyword in node.keywords:
                    if keyword.arg == "default_factory" and \
                            isinstance(keyword.value, ast.Name) and \
                            keyword.value.id in ("set", "frozenset"):
                        return True
        return False

    def _is_set_valued(self, node: ast.AST) -> bool:
        if self._is_set_expr(node):
            return True
        if isinstance(node, ast.Name) and node.id in self._set_names:
            return True
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self" and node.attr in self._set_attrs:
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                      self._SET_OPS):
            return (self._is_set_valued(node.left)
                    or self._is_set_valued(node.right))
        return False

    def _flag(self, iterable: ast.AST, where: ast.AST) -> Hit:
        if self._is_set_valued(iterable):
            yield where, ("iteration over a set is order-nondeterministic "
                          "across runs; iterate sorted(...) instead")

    def check_For(self, node: ast.For, ctx: ModuleContext) -> Hit:
        yield from self._flag(node.iter, node)

    def _check_comprehension(self, node, ctx: ModuleContext) -> Hit:
        for generator in node.generators:
            yield from self._flag(generator.iter, node)

    check_ListComp = _check_comprehension
    check_SetComp = _check_comprehension
    check_DictComp = _check_comprehension
    check_GeneratorExp = _check_comprehension


@register
class FloatEqTime(Rule):
    id = "DET007"
    name = "float-eq-time"
    rationale = ("simulated time is integer nanoseconds exactly so that "
                 "equality is exact; comparing a timestamp against a "
                 "float reintroduces platform-dependent rounding")
    example = "if sim.now == 1.5e6: ..."

    _TIMEISH = re.compile(
        r"(^|_)(now|time|ts|when|deadline|timestamp)($|_)|_ns$|_at$")

    def _timeish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return bool(self._TIMEISH.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(self._TIMEISH.search(node.attr))
        return False

    @staticmethod
    def _floatish(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float")

    def check_Compare(self, node: ast.Compare, ctx: ModuleContext) -> Hit:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left, *node.comparators]
        if any(self._floatish(op) for op in operands) and \
                any(self._timeish(op) for op in operands):
            yield node, ("float equality against a simulation timestamp; "
                         "simulated time is exact integer ns")


# ---------------------------------------------------------------------------
# SIM — scheduling
# ---------------------------------------------------------------------------

@register
class RawHeapq(Rule):
    id = "SIM001"
    name = "raw-heapq"
    rationale = ("the event queue's determinism rests on the kernel's "
                 "(time, sequence) tie-break; a raw heapq in model code "
                 "bypasses that contract — schedule through Simulator "
                 "events or sim.resources containers")
    example = "import heapq  # in a device model"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.module.startswith("repro.sim")

    def check_Import(self, node: ast.Import, ctx: ModuleContext) -> Hit:
        if any(alias.name == "heapq" for alias in node.names):
            yield node, ("direct heapq use outside repro.sim bypasses the "
                         "kernel's deterministic tie-break")

    def check_ImportFrom(self, node: ast.ImportFrom,
                         ctx: ModuleContext) -> Hit:
        if node.module == "heapq":
            yield node, ("direct heapq use outside repro.sim bypasses the "
                         "kernel's deterministic tie-break")


@register
class KernelInternals(Rule):
    id = "SIM002"
    name = "kernel-internals"
    rationale = ("Simulator._heap/_enqueue are load-bearing internals: "
                 "touching them from model code can reorder same-tick "
                 "events; use sim.event()/timeout()/process() instead")
    example = "sim._enqueue(0, my_event)"

    _PRIVATE = frozenset({"_heap", "_enqueue"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.module.startswith("repro.sim")

    def check_Attribute(self, node: ast.Attribute,
                        ctx: ModuleContext) -> Hit:
        if node.attr in self._PRIVATE:
            yield node, (f"access to Simulator internal .{node.attr}; "
                         "go through the public event API")


@register
class BlockingCall(Rule):
    id = "SIM003"
    name = "blocking-call"
    rationale = ("event handlers run inline in the event loop; a host "
                 "blocking call (sleep, subprocess, console input, "
                 "network I/O) freezes every simulator in the process "
                 "— waiting is expressed as yielded simulation Events")
    example = "time.sleep(0.1)  # inside a process generator"

    _MODULE_CALLS = {
        "time": frozenset({"sleep"}),
        "os": frozenset({"system"}),
        "subprocess": frozenset({"run", "call", "check_call",
                                 "check_output", "Popen"}),
        "socket": frozenset({"socket", "create_connection"}),
        "requests": frozenset({"get", "post", "put", "delete", "request"}),
        "select": frozenset({"select", "poll"}),
    }

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.module.startswith("repro.experiments")

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Hit:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "input":
            yield node, "input() blocks the event loop on the console"
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            allowed = self._MODULE_CALLS.get(func.value.id)
            if allowed and func.attr in allowed:
                yield node, (f"{func.value.id}.{func.attr}() blocks the "
                             "host thread; simulation code waits on "
                             "yielded Events")


@register
class DiscardedProcess(Rule):
    id = "SIM004"
    name = "discarded-process"
    rationale = ("a process whose handle is discarded has no waiter, yet "
                 "sim.process() schedules an event for its end; "
                 "sim.spawn() starts it the same way and schedules "
                 "nothing when it ends")
    example = "self.sim.process(self._handle(command))"

    # Receivers that name a simulator: ``sim``, ``<expr>.sim``,
    # ``<expr>._sim``.
    _SIM_NAMES = frozenset({"sim", "_sim"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        # Model code only: a test may start an unwatched process on
        # purpose, to pin what such a process does.
        leaf = ctx.module.rsplit(".", 1)[-1]
        return not (leaf.startswith("test_") or leaf == "conftest")

    def check_Expr(self, node: ast.Expr, ctx: ModuleContext) -> Hit:
        call = node.value
        if not isinstance(call, ast.Call) or _attr_call(call) != "process":
            return
        receiver = call.func.value
        if (isinstance(receiver, ast.Name) and receiver.id == "sim") or (
                isinstance(receiver, ast.Attribute)
                and receiver.attr in self._SIM_NAMES):
            yield node, ("the process this starts is discarded; start a "
                         "process nobody waits on with sim.spawn()")


# ---------------------------------------------------------------------------
# PLANE — observability-plane contracts
# ---------------------------------------------------------------------------

@register
class UnknownMetric(Rule):
    id = "PLANE001"
    name = "unknown-metric"
    rationale = ("metric names are a closed, documented catalog "
                 "(repro/metrics/catalog.py + docs/metrics.md); an "
                 "uncataloged literal would raise MetricsError at "
                 "runtime on the first metered run — reject it at lint "
                 "time instead")
    example = 'metrics.counter("nvme.tyop_bytes", dev=name)'

    _METHODS = frozenset({"counter", "gauge", "timegauge", "histogram",
                          "polled", "polled_map", "kind_of"})
    _DOTTED = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.metrics.catalog"

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Hit:
        callee = _attr_call(node)
        if not callee and isinstance(node.func, ast.Name):
            callee = node.func.id
        name = _first_str_arg(node)
        if name is None:
            return
        checkable = callee in self._METHODS or (
            callee == "register" and self._DOTTED.match(name))
        if checkable and name not in metric_names():
            yield node, (f"metric name {name!r} is not in the documented "
                         "catalog (repro/metrics/catalog.py)")


@register
class UnknownTraceEvent(Rule):
    id = "PLANE002"
    name = "unknown-trace-event"
    rationale = ("trace event types are a closed, documented taxonomy "
                 "(repro/trace/events.py + docs/tracing.md); an "
                 "unregistered literal would raise TraceError on the "
                 "first traced run — reject it at lint time instead")
    example = 'tracer.instant("nvme.oops", track="ssd")'

    _METHODS = frozenset({"begin", "instant", "complete", "span"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.trace.events"

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Hit:
        callee = _attr_call(node)
        if callee not in self._METHODS:
            return
        # Every Tracer method requires a track (second positional or
        # track= keyword); LatencyTrace.span(category) takes neither,
        # so its free-form categories are not flagged.
        has_track = (len(node.args) >= 2
                     or any(kw.arg == "track" for kw in node.keywords))
        if not has_track:
            return
        name = _first_str_arg(node)
        if name is not None and name not in event_type_names():
            yield node, (f"trace event type {name!r} is not in the "
                         "documented taxonomy (repro/trace/events.py)")


@register
class UnknownFaultSite(Rule):
    id = "PLANE003"
    name = "unknown-fault-site"
    rationale = ("fault sites are the fixed set wired into the models "
                 "(repro/faults.py FAULT_SITES); a rule naming an "
                 "unknown site would raise ConfigurationError — and a "
                 "fires() probe on one would silently never fire")
    example = 'plan = FaultPlan([FaultRule(site="nvme.cqe_dorp", ...)])'

    _METHODS = frozenset({"fires", "occurrences"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.faults"

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Hit:
        callee = _attr_call(node)
        if not callee and isinstance(node.func, ast.Name):
            callee = node.func.id
        site = None
        if callee in self._METHODS:
            site = _first_str_arg(node)
        elif callee == "FaultRule":
            site = _first_str_arg(node)
            for keyword in node.keywords:
                if keyword.arg == "site" and \
                        isinstance(keyword.value, ast.Constant) and \
                        isinstance(keyword.value.value, str):
                    site = keyword.value.value
        if site is not None and site not in fault_site_names():
            yield node, (f"fault site {site!r} is not wired into the "
                         "models (repro/faults.py FAULT_SITES)")
