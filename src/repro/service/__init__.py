"""Persistent CEC service: server, worker pool, proof cache, client.

The paper's workload is many near-identical equivalence queries — SAT
sweeping re-proves the same structural fragments across netlist
revisions. This package amortizes that: a long-running server
(:class:`CecServer`) keeps a worker pool warm and a content-addressed
:class:`ProofCache` on disk, so a repeated (or symmetric) query is
answered with its stored certificate instead of a fresh solver run.

Entry points: ``repro-serve`` (:mod:`repro.service.serve_cli`) and
``repro-client`` (:mod:`repro.service.client_cli`); ``repro-cec
--server ADDR`` routes a normal check through a server.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .cache import ProofCache, cache_key, canonical_options
from .client import ServiceClient, ServiceError
from .jobs import Job, JobTable, QueueFullError
from .protocol import PROTOCOL_SCHEMA, ProtocolError
from .worker import execute_job

if TYPE_CHECKING:  # resolved lazily at runtime via __getattr__
    from .server import CecServer

# The server pulls in asyncio; clients (repro-client, repro-cec
# --server) import this package and must not pay for it.
__getattr__ = lazy_exports(__name__, {".server": ("CecServer",)})

__all__ = [
    "CecServer",
    "Job",
    "JobTable",
    "PROTOCOL_SCHEMA",
    "ProofCache",
    "ProtocolError",
    "QueueFullError",
    "ServiceClient",
    "ServiceError",
    "cache_key",
    "canonical_options",
    "execute_job",
]
