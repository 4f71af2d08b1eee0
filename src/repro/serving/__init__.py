"""Model serving: turn persisted workload models into a queryable service.

The paper's payoff is that "once constructed, the model can predict the
performance of unmeasured configurations instantly" (Section 5) — this
package is the layer that makes those instant predictions available at
volume.  A :class:`~repro.serving.registry.ModelRegistry` hot-loads the
JSON artifacts written by :func:`repro.models.persistence.save_model`, a
:class:`~repro.serving.batcher.MicroBatcher` coalesces concurrent
single-configuration queries into one vectorized forward pass, a
:class:`~repro.serving.cache.PredictionCache` short-circuits exact-repeat
configurations (the common case in tuning sweeps), and
:class:`~repro.serving.server.ServingHTTPServer` exposes the whole engine
over HTTP (``repro serve``).  The HTTP layer is imported from
``repro.serving.server`` only, so ``python -m repro.serving.server`` runs
that module once.  Everything is stdlib + NumPy.
"""

from .batcher import BatcherClosedError, MicroBatcher
from .cache import PredictionCache
from .client import ServingClient, ServingError, TruncatedResponseError
from .engine import PredictionResult, ServingEngine
from .metrics import ServingMetrics
from .registry import ModelRegistry, RegistryEntry

__all__ = [
    "ModelRegistry",
    "RegistryEntry",
    "MicroBatcher",
    "BatcherClosedError",
    "PredictionCache",
    "ServingMetrics",
    "ServingEngine",
    "PredictionResult",
    "ServingClient",
    "ServingError",
    "TruncatedResponseError",
]
