"""The request workload: Poisson arrivals, Dropbox sizes, PUT/GET mix.

Paper §V-C1: "To model a realistic user behavior, we generate user
requests with the parameters (e.g., PUT/GET ratio, file size
distribution) in [42] obtained from the real-world data-serving
service.  We also use the Poisson process to model request arrivals."

The Dropbox study's transfer mix skews toward retrieval with a solid
upload share; we use GET:PUT = 60:40.  Object sizes follow the bucket
mix in :data:`repro.sim.rng.DROPBOX_SIZE_BUCKETS`, capped by
``max_object`` to keep simulated transfers tractable (documented
substitution: the cap trims the >1 MiB tail, which affects absolute
bytes moved but not per-byte CPU costs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List

from repro.sim.rng import RngHub, dropbox_file_sizes, exponential_interarrivals
from repro.units import MIB


def pattern_bytes(size: int, stride: int, offset: int = 0) -> bytes:
    """``bytes((i * stride + offset) % 256 for i in range(size))``.

    Built by tiling the pattern's 256-byte period rather than one
    generator step per byte: Swift objects and HDFS blocks are
    generated on every run, at up to megabytes each.
    """
    period = bytes((i * stride + offset) % 256 for i in range(256))
    return (period * -(-size // 256))[:size]


class RequestKind(enum.Enum):
    GET = "GET"
    PUT = "PUT"


@dataclass(frozen=True)
class Request:
    """One client request."""

    kind: RequestKind
    size: int
    arrival: int  # ns offset from workload start


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload shape parameters."""

    arrival_rate: float = 2000.0   # requests per second
    put_ratio: float = 0.4
    max_object: int = 1 * MIB
    count: int = 100               # requests to generate
    seed: int = 0


def requests(config: WorkloadConfig) -> List[Request]:
    """Generate the request list for a run (deterministic per seed)."""
    if not 0.0 <= config.put_ratio <= 1.0:
        raise ValueError(f"put_ratio must be in [0, 1]: {config.put_ratio}")
    if config.count <= 0:
        raise ValueError(f"count must be positive: {config.count}")
    hub = RngHub(config.seed)
    arrival_rng = hub.stream("arrivals")
    size_rng = hub.stream("sizes")
    kind_rng = hub.stream("kinds")
    gaps = exponential_interarrivals(arrival_rng, config.arrival_rate)
    sizes = dropbox_file_sizes(size_rng)
    out = []
    now = 0
    for _ in range(config.count):
        now += next(gaps)
        size = min(next(sizes), config.max_object)
        kind = (RequestKind.PUT if kind_rng.random() < config.put_ratio
                else RequestKind.GET)
        out.append(Request(kind=kind, size=size, arrival=now))
    return out


def bytes_by_kind(reqs: Iterator[Request]) -> dict:
    """Total payload bytes per request kind."""
    totals = {RequestKind.GET: 0, RequestKind.PUT: 0}
    for request in reqs:
        totals[request.kind] += request.size
    return totals
