"""The fleet tier: scale-out distribution over ``repro-serve`` shards.

One ``repro-serve`` process is the single-machine ceiling of the CEC
service. This package adds the distribution layer above it:

* :mod:`repro.fleet.ring` — deterministic consistent-hash ring with
  bounded key movement on membership changes.
* :mod:`repro.fleet.aioclient` — asyncio client for the line-JSON
  service/fleet protocols (used by the shards backend and the load
  bench).
* :mod:`repro.fleet.shards` — the shards backend of
  :class:`~repro.service.server.CecServer` (``repro-router``): routes
  submits by proof-cache key, brokers cross-shard ``repro-fleet/1``
  cache transfers, health-checks shards, and stitches traces across
  the extra hop.

See ``docs/fleet.md`` for the topology, failure modes, and retry
semantics.
"""

from .aioclient import AsyncServiceClient
from .ring import DEFAULT_REPLICAS, HashRing

__all__ = [
    "AsyncServiceClient",
    "DEFAULT_REPLICAS",
    "HashRing",
]
