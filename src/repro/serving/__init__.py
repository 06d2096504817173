"""Cross-process sharded serving over the id-native wire format.

The one subsystem that escapes the GIL: a :class:`ShardedPool` spreads a
corpus store's documents across N worker processes (one shard per
worker, assigned by snapshot content hash), ships queries and results as
compact id-native frames (:mod:`repro.serving.wire` — query text + store
key in, sorted int32 id arrays / scalars out, never pickled nodes), and
warms workers by hydrating mmap'd snapshots from the shared
:class:`~repro.store.CorpusStore`, so process startup pays no XML parse
and no index build.

Entry points, highest level first:

* :meth:`repro.engine.XPathEngine.serve` /
  :meth:`~repro.engine.XPathEngine.evaluate_sharded` — the engine façade
  treats the pool as one more dispatch backend and merges its stats;
* :class:`ShardedPool` — the backend itself, for callers that manage
  worker lifecycle explicitly (``with ShardedPool(store) as pool:
  pool.evaluate_batch(...)`` is the one-shot batch form);
* :class:`XPathServer` / :class:`ServingClient` — the network tier: an
  asyncio TCP front door multiplexing many client connections onto one
  supervised pool (same frames, plus admission control and a JSON shim),
  and the matching blocking / asyncio clients;
* ``python -m repro serve [--listen HOST:PORT]`` / ``client`` /
  ``query --workers N`` on the command line.

See ``docs/serving.md`` for the architecture, the wire-format spec, the
worker lifecycle and the operations guide.
"""

from repro.serving.pool import (
    DEFAULT_MAX_RESTARTS,
    DEFAULT_MAX_RETRIES,
    DEFAULT_WINDOW,
    ServingError,
    ServingStats,
    ServingTimeout,
    ShardedPool,
    WorkerCrashed,
    WorkerStats,
)
from repro.serving.client import (
    AsyncServingClient,
    ConnectionDrained,
    Overloaded,
    RemoteResult,
    ServingClient,
)
from repro.serving.server import XPathServer
from repro.serving.wire import PROTOCOL_VERSION, WireError

__all__ = [
    "DEFAULT_MAX_RESTARTS",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_WINDOW",
    "AsyncServingClient",
    "ConnectionDrained",
    "Overloaded",
    "PROTOCOL_VERSION",
    "RemoteResult",
    "ServingClient",
    "ServingError",
    "ServingStats",
    "ServingTimeout",
    "ShardedPool",
    "WireError",
    "WorkerCrashed",
    "WorkerStats",
    "XPathServer",
]
