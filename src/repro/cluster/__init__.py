"""Multi-process inference cluster: supervised workers behind one router.

The in-process serving stack tops out at one interpreter: the GIL caps
predict throughput and a single wedged or killed thread of execution is a
full outage.  This package moves inference into N supervised worker
*processes*:

* :mod:`~repro.cluster.protocol` — the framed binary wire format between
  the front end and a worker (JSON header + raw float64 payload).
* :mod:`~repro.cluster.worker` — the ``python -m repro.cluster.worker``
  child: preloads every artifact, then serves predict/ping/reload/drain
  frames until told to stop (or killed — that is the point).
* :mod:`~repro.cluster.supervisor` — spawns the pool, heartbeats it,
  detects crashes and wedges, restarts with exponential backoff under a
  budget, and drains gracefully.
* :mod:`~repro.cluster.router` — rendezvous-hashes model names onto the
  ready workers, with wider replica sets for hot models.
* :mod:`~repro.cluster.engine` — :class:`ClusterEngine`, the sibling of
  the in-process ``ServingEngine`` under the shared
  :class:`~repro.serving.engine.Engine` front half: it supplies the
  primary → sibling failover path and trace propagation across the
  process boundary; admission and the surrogate fallback are shared.
"""

from .engine import ClusterEngine
from .protocol import ProtocolError, WorkerCallError
from .router import RendezvousRouter
from .supervisor import (
    FAILED,
    READY,
    RESTARTING,
    STARTING,
    STOPPED,
    SUSPECT,
    WORKER_STATES,
    WorkerHandle,
    WorkerSupervisor,
)

__all__ = [
    "ClusterEngine",
    "ProtocolError",
    "WorkerCallError",
    "RendezvousRouter",
    "WorkerSupervisor",
    "WorkerHandle",
    "WORKER_STATES",
    "STARTING",
    "READY",
    "SUSPECT",
    "RESTARTING",
    "FAILED",
    "STOPPED",
]
