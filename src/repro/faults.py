"""Deterministic fault injection and the recovery policy knobs.

Real drivers own the *unhappy* path — command timeouts, bounded
retries, aborting a multi-device chain when one stage dies.  This
module is the platform half of that story:

* :class:`FaultRule` / :class:`FaultPlan` — a seeded description of
  *what* fails and *when*.  Each rule names an injection site (a
  dotted slug such as ``"flash.read"``), and fires either with a
  probability per occurrence or at explicit occurrence numbers.  All
  randomness comes from a dedicated :class:`~repro.sim.rng.RngHub`
  stream per site (``faults/<site>``), so two runs with the same seed
  inject *identically*.
* :class:`ActiveFaults` — the per-simulator runtime installed by
  :meth:`FaultPlan.install` as ``sim.faults``.  Injection sites guard
  with one ``is not None`` check (mirroring ``sim.tracer``), so the
  fault-free hot path pays a single branch per site; under a plan, a
  site it has no rule for skips :meth:`ActiveFaults.fires` too.
* :class:`RetryPolicy` — deadline + bounded-retry/backoff parameters
  used by the host NVMe driver, the engine's device controllers and
  the HDC driver's completion watchdog.
* :func:`watchdog` — arm a deadline on a pending event: if the event
  has not triggered when the deadline expires, it *fails* with
  :class:`~repro.errors.DeviceTimeout`.  Implemented as a raw timeout
  callback (not ``any_of``) so the success path's event ordering is
  untouched.

Injection sites in the tree (see ``docs/faults.md``):

===================  =====================================================
site                 effect when it fires
===================  =====================================================
``flash.read``       uncorrectable media error (``MediaError``) on an LBA
                     read; ``permanent=True`` makes the hit LBA sticky
``nvme.cqe_drop``    the SSD executes the command but never posts the CQE
                     (and never raises its MSI)
``nic.wire_drop``    an egress frame is lost on the wire
``pcie.timeout``     a TLP completion timeout on one DMA traversal
===================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DeviceTimeout
from repro.units import msec, usec

#: The injection sites wired into the device/fabric models.
FAULT_SITES = ("flash.read", "nvme.cqe_drop", "nic.wire_drop",
               "pcie.timeout")
#: The sites that pass a ``key`` to :meth:`ActiveFaults.fires`, the only
#: ones a ``permanent`` rule can stick to.
KEYED_SITES = ("flash.read",)


def fault_site_names() -> frozenset:
    """The closed set of injection-site names.

    Machine-readable export consumed by tooling — in particular the
    ``PLANE003`` rule of :mod:`repro.lint`, which rejects site string
    literals that are not wired into the models.
    """
    return frozenset(FAULT_SITES)


# ---------------------------------------------------------------------------
# Plans and rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *where*, *when*, and *how sticky*.

    ``probability`` fires the rule on each occurrence with that chance
    (drawn from the site's dedicated rng stream); ``occurrences`` fires
    it deterministically at those 1-based occurrence numbers of the
    site.  Both may be combined.  ``permanent`` records the occurrence
    *key* (e.g. the LBA) so every later access to the same key fails
    too — a dead block rather than a transient flip; it is rejected on
    a site that fires without a key (see :data:`KEYED_SITES`).  ``max_fires``
    bounds how many times the rule triggers in total.
    """

    site: str
    probability: float = 0.0
    occurrences: FrozenSet[int] = frozenset()
    permanent: bool = False
    max_fires: Optional[int] = None

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; choose from "
                f"{', '.join(FAULT_SITES)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1]: {self.probability}")
        if self.permanent and self.site not in KEYED_SITES:
            raise ConfigurationError(
                f"fault site {self.site!r} fires without a key, so "
                "permanent=True has nothing to stick to; permanent rules "
                f"need a keyed site ({', '.join(KEYED_SITES)})")
        object.__setattr__(self, "occurrences",
                           frozenset(self.occurrences))

    @property
    def can_fire(self) -> bool:
        return self.probability > 0.0 or bool(self.occurrences)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of everything that fails.

    Install onto a simulator (together with its :class:`RngHub`) via
    :meth:`install`; :class:`~repro.schemes.testbed.Testbed` accepts a
    plan directly through its ``faults=`` parameter.
    """

    rules: Tuple[FaultRule, ...] = ()

    def __init__(self, rules: Sequence[FaultRule] = ()):
        object.__setattr__(self, "rules", tuple(rules))

    def install(self, sim, rng_hub) -> "ActiveFaults":
        """Activate this plan on ``sim`` (sets ``sim.faults``)."""
        active = ActiveFaults(self, rng_hub, sim)
        sim.faults = active
        return active


class _SiteState:
    """Runtime state of one injection site."""

    __slots__ = ("rules", "rng", "count", "fired", "sticky")

    def __init__(self, rules: List[FaultRule], rng):
        self.rules = rules
        self.rng = rng
        self.count = 0          # occurrences seen (1-based after increment)
        self.fired = [0] * len(rules)
        self.sticky: set = set()


class ActiveFaults:
    """The runtime the injection sites consult (``sim.faults``).

    ``armed`` is False for a zero-rate plan (no rule can ever fire);
    recovery code uses it to skip arming watchdogs, which keeps a
    zero-rate run's event schedule byte-identical to an uninstrumented
    one.  ``armed_sites`` names the sites the plan has a rule for:
    :meth:`fires` on any other site only returns False, so injection
    sites test membership first and skip the call.
    """

    def __init__(self, plan: FaultPlan, rng_hub, sim):
        self.sim = sim
        self.plan = plan
        self.injected = 0
        metrics = sim.metrics
        if metrics is not None:
            metrics.polled("faults.injected", lambda: self.injected)
        self._sites: Dict[str, _SiteState] = {}
        for rule in plan.rules:
            state = self._sites.get(rule.site)
            if state is None:
                state = _SiteState([], rng_hub.stream(f"faults/{rule.site}"))
                self._sites[rule.site] = state
            state.rules.append(rule)
            state.fired.append(0)
        self.armed = any(rule.can_fire for rule in plan.rules)
        self.armed_sites = frozenset(self._sites)

    def occurrences(self, site: str) -> int:
        """How many times ``site`` has been evaluated so far."""
        state = self._sites.get(site)
        return 0 if state is None else state.count

    def fires(self, site: str, key=None, **detail) -> bool:
        """Evaluate the site's rules for this occurrence.

        ``key`` identifies the resource being touched (e.g. an LBA) for
        permanent-fault stickiness.  ``detail`` lands in the emitted
        ``fault.inject`` trace event.
        """
        state = self._sites.get(site)
        if state is None:
            return False
        state.count += 1
        occurrence = state.count
        fired = key is not None and key in state.sticky
        if not fired:
            for index, rule in enumerate(state.rules):
                if (rule.max_fires is not None
                        and state.fired[index] >= rule.max_fires):
                    continue
                hit = occurrence in rule.occurrences
                if not hit and rule.probability > 0.0:
                    hit = state.rng.random() < rule.probability
                if hit:
                    state.fired[index] += 1
                    if rule.permanent and key is not None:
                        state.sticky.add(key)
                    fired = True
                    break
        if fired:
            self.injected += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant("fault.inject", track="faults", name=site,
                               site=site, occurrence=occurrence,
                               key=repr(key) if key is not None else None,
                               **detail)
        return fired


def active_faults(sim) -> Optional[ActiveFaults]:
    """``sim.faults`` if an armed plan is installed, else None.

    Recovery machinery (watchdogs, deadlines) gates on this so that a
    run without injectable faults schedules *no* extra events at all.
    """
    faults = sim.faults
    if faults is not None and faults.armed:
        return faults
    return None


# ---------------------------------------------------------------------------
# Recovery: deadlines, bounded retries, watchdogs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + bounded-retry parameters for one command class.

    ``deadline_for(nbytes)`` scales the base deadline by the transfer
    size; ``backoff(attempt)`` is the exponential pause before retry
    ``attempt`` (1-based).  Defaults are generous relative to the
    simulated devices' microsecond-scale operations, so a deadline only
    trips when a completion was genuinely lost.
    """

    deadline_ns: int
    deadline_per_byte: int = 0
    retries: int = 3
    backoff_ns: int = usec(50)
    backoff_factor: int = 2

    def deadline_for(self, nbytes: int) -> int:
        return self.deadline_ns + self.deadline_per_byte * nbytes

    def backoff(self, attempt: int) -> int:
        return self.backoff_ns * (self.backoff_factor ** max(0, attempt - 1))


#: Host NVMe driver: per-command deadline and bounded re-issue.
HOST_NVME_POLICY = RetryPolicy(deadline_ns=msec(10), deadline_per_byte=4,
                               retries=3, backoff_ns=usec(50))
#: Engine NVMe controller: what the RTL FSM's wait state would time out.
ENGINE_NVME_POLICY = RetryPolicy(deadline_ns=msec(5), deadline_per_byte=4,
                                 retries=3, backoff_ns=usec(20))
#: Engine NIC controller, transmit: deadline only (a TCP stream cannot
#: be blindly re-sent at the descriptor level).
ENGINE_NIC_SEND_POLICY = RetryPolicy(deadline_ns=msec(20),
                                     deadline_per_byte=8, retries=0)
#: Engine NIC controller, receive gather: deadline only.
ENGINE_NIC_RECV_POLICY = RetryPolicy(deadline_ns=msec(50),
                                     deadline_per_byte=8, retries=0)
#: HDC driver's D2D completion watchdog: the last line of defence, so
#: it sits well above every per-device deadline and retry budget.
D2D_WATCHDOG_POLICY = RetryPolicy(deadline_ns=msec(200),
                                  deadline_per_byte=16, retries=0)


def watchdog(sim, event, deadline: int, what: str, **detail) -> None:
    """Fail ``event`` with :class:`DeviceTimeout` after ``deadline`` ns
    unless it has triggered by then.

    The expiry is a plain callback on a :class:`~repro.sim.events.Timeout`
    — no composite event, no extra hop on the success path — so arming
    a watchdog cannot reorder a run in which it never fires.
    """

    def _expire(_timeout) -> None:
        if event.triggered:
            return
        tracer = sim.tracer
        if tracer is not None:
            tracer.instant("recover.timeout", track="faults", name=what,
                           deadline=deadline, **detail)
        event.fail(DeviceTimeout(f"{what}: no completion within "
                                 f"{deadline} ns"))

    sim.timeout(deadline).callbacks.append(_expire)
