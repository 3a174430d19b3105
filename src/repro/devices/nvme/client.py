"""The submitter side of the NVMe protocol, shared by the host's NVMe
driver and the HDC Engine's NVMe controller.  They differ only in who
pays for a command, how CQEs are noticed (MSI handler or polling FSM),
the retry policy and the names; :class:`NvmeClient` is the rest.
"""

from __future__ import annotations

from itertools import count

from repro.devices.nvme.commands import (LBA_SIZE, NvmeCommand, prp_fields,
                                         prp_pages)
from repro.devices.nvme.queues import QueuePair
from repro.errors import DeviceError
from repro.faults import RetryPolicy, active_faults, watchdog
from repro.sim.resources import WaiterTable


class NvmeClient(WaiterTable):
    """Submitter side of one NVMe I/O queue pair.

    A command holds one of the SQ's ``depth - 1`` usable slots from
    admission until its completion or expired deadline, so the SQ never
    overflows; :class:`~repro.sim.resources.WaiterTable` does the
    admission and keeps the cid -> waiter table.

    ``on_drain()``, if given, runs whenever forgetting a command leaves
    no command outstanding (a poller's cue to stop polling).
    """

    def __init__(self, sim, qp: QueuePair, initiator: str, prp_area: int,
                 prp_slot: int, policy: RetryPolicy, label: str, owner: str,
                 on_drain=None):
        super().__init__(sim, qp.depth - 1, on_drain)
        self.qp = qp
        self.initiator = initiator      # who rings the doorbells
        self.policy = policy
        self.label = label              # "host NVMe" / "engine NVMe"
        self._prp_area = prp_area
        self._prp_slot = prp_slot
        self.retries = 0
        metrics = sim.metrics
        if metrics is not None:
            metrics.polled("faults.retries", lambda: self.retries,
                           owner=owner)

    def admit(self):
        """Process: take an SQ slot (waiting while all are held); returns
        the new command's cid."""
        yield from super().admit()
        return self.qp.allocate_cid()

    def issue(self, cid: int, opcode: int, slba: int, nbytes: int, buf: int):
        """Process: write the SQE for an admitted ``cid`` and ring the SQ
        doorbell; returns the event its completion will trigger."""
        prp1, prp2, blob = prp_fields(prp_pages(buf, nbytes))
        if blob:
            prp2 = self._prp_area + (cid % self.qp.depth) * self._prp_slot
            self.qp.fabric.address_map.write(prp2, blob)
        self.qp.push(NvmeCommand(opcode=opcode, cid=cid, nsid=1, prp1=prp1,
                                 prp2=prp2, slba=slba,
                                 nlb=nbytes // LBA_SIZE - 1))
        yield from self.qp.ring_sq(self.initiator)
        return self.expect(cid)

    def command(self, issue, slba: int, nbytes: int, settle=None,
                issued=None):
        """Process: drive one command to a good CQE, retrying failures
        and expired deadlines per the policy.

        ``issue()`` submits an attempt and returns ``(cid, waiter)``
        (``issued``: a first attempt already in flight).  ``settle(cqe,
        waited_from, completed_at)``, if given, runs on each completion in
        place of the status check: it returns the CQE or raises
        DeviceError.
        """
        cid, waiter = issued if issued is not None else (yield from issue())
        for attempt in count(1):
            waited_from = self.sim.now
            if active_faults(self.sim) is not None:
                watchdog(self.sim, waiter, self.policy.deadline_for(nbytes),
                         f"{self.label} cid {cid}", cid=cid, slba=slba,
                         size=nbytes)
            try:
                cqe, completed_at = yield waiter
                if settle is not None:
                    return (yield from settle(cqe, waited_from, completed_at))
                if cqe.ok:
                    return cqe
                raise DeviceError(
                    f"NVMe command failed with status {cqe.status}")
            except DeviceError as exc:
                # A lost command (dropped CQE, dead device) is forgotten;
                # should its CQE still land it counts as stale.
                self.forget(cid)
                if attempt > self.policy.retries:
                    raise
                # Only its text outlives this block: the exception's
                # traceback holds this frame, so keeping the exception
                # in a local would make a reference cycle.
                reason = str(exc)
            self.retries += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant("recover.retry", track="faults",
                               name=f"{self.label} retry {attempt}",
                               cid=cid, attempt=attempt,
                               reason=reason)
            yield self.sim.timeout(self.policy.backoff(attempt))
            cid, waiter = yield from issue()

    def complete(self, cqe, completed_at: int):
        """Process: acknowledge one consumed CQE (CQ head doorbell), then
        hand it to the command waiting on it — or, if that command's
        deadline already expired, count it as stale and drop it."""
        yield from self.qp.ring_cq(self.initiator)
        self.deliver(cqe.cid, (cqe, completed_at))
