"""Observation sessions: the one mechanism that equips new simulators.

An observation plane (tracing, metrics) is a :class:`Session` subclass
naming the :class:`~repro.sim.kernel.Simulator` attribute it fills and
how to build that attribute's product (a ``Tracer``, a ``MetricSet``).
While a session is installed, every ``Simulator`` built calls
:func:`equip`, which hands it one fresh product per installed plane and
``None`` for the rest — so an instrumentation site costs one
``is not None`` check when its plane is off.

One registry, keyed by plane, holds the installed sessions; at most one
session per plane is installed at a time.  :func:`equip` fills the
planes in the fixed :data:`PLANES` order, whatever order the sessions
were installed in, so the products a run builds never depend on it.
This module imports no plane: the kernel depends on it alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.errors import ReproError

# Simulator attributes a session can fill, in equip order.
PLANES = ("tracer", "metrics")

_INSTALLED: Dict[str, "Session"] = {}


class Session:
    """Collects the products of every simulator built while installed.

    Subclasses set :attr:`plane` and :attr:`error` and implement
    :meth:`make`.  Use as a context manager (preferred; exit uninstalls
    and finalizes) or via :meth:`install`/:meth:`uninstall`.
    """

    plane: str = ""
    error: type = ReproError

    def __init__(self, label: str = "run"):
        self.products: List[Any] = []
        self._label = label
        self._counter = 0

    def install(self) -> "Session":
        current = _INSTALLED.get(self.plane)
        if current is not None and current is not self:
            raise self.error(
                f"another {type(self).__name__} is already installed")
        _INSTALLED[self.plane] = self
        return self

    def uninstall(self) -> None:
        if _INSTALLED.get(self.plane) is self:
            del _INSTALLED[self.plane]

    def __enter__(self) -> "Session":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self.finalize()

    def set_label(self, label: str) -> str:
        """Label simulators created from now on; returns the old label."""
        previous, self._label = self._label, label
        return previous

    def make(self, sim, label: str) -> Any:
        """Build this plane's product for ``sim``."""
        raise NotImplementedError

    def attach(self, sim) -> Any:
        product = self.make(sim, f"{self._label}/sim{self._counter}")
        self._counter += 1
        self.products.append(product)
        return product

    def finalize(self) -> None:
        for product in self.products:
            product.finalize()


def installed(plane: str) -> Optional[Session]:
    """The session installed for ``plane``, or None (that plane is off)."""
    return _INSTALLED.get(plane)


def equip(sim) -> None:
    """Called by ``Simulator.__init__``: fill every plane attribute."""
    for plane in PLANES:
        session = _INSTALLED.get(plane)
        setattr(sim, plane, None if session is None else session.attach(sim))


@contextmanager
def section(label: str):
    """Label every simulator built inside the block, on every installed
    plane; the labels are restored on exit (no-op when none is)."""
    sessions = list(_INSTALLED.values())
    previous = [session.set_label(label) for session in sessions]
    try:
        yield
    finally:
        for session, old in zip(sessions, previous):
            session.set_label(old)
