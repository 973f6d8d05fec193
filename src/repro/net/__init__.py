"""Networked serving: push-based delta subscriptions over asyncio TCP.

The network layer puts a wire in front of the in-process serving stack
(:class:`~repro.core.serving.EngineServer`):

* :mod:`repro.net.protocol` — length-prefixed frames (JSON messages; result
  sets and deltas as typed binary column blocks) and the wire encodings
  for tuples, pairs, and updates.
* :mod:`repro.net.server` — :class:`EngineTCPServer` (asyncio) plus the
  :class:`ServerThread` adapter for synchronous hosts; serves requests,
  paged snapshot enumeration, push subscriptions with bounded-queue
  backpressure, and ``GET /metrics`` on the same port.
* :mod:`repro.net.client` — :class:`AsyncEngineClient`, the one
  implementation of the wire client, and :class:`EngineClient`, the same
  client run on a private loop thread for blocking callers; subscriptions
  are mirrored by one delta/resync state machine
  (:class:`AsyncSubscription`, with ring addition as the merge rule in
  :class:`AsyncAggregateSubscription`).
* :mod:`repro.net.metrics` — Prometheus text-format export.

See ``docs/architecture.md`` section 13 for the protocol contract, and
``tools/serve.py`` for the command-line entry point.
"""

from repro.net.client import (
    AsyncAggregateSubscription,
    AsyncEngineClient,
    AsyncRemoteSnapshot,
    AsyncSubscription,
    EngineClient,
    RemoteSnapshot,
    Subscription,
)
from repro.net.metrics import render_server_metrics
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosedError,
    ProtocolError,
    RemoteError,
    unwire_pairs,
    unwire_updates,
    wire_pairs,
    wire_updates,
)
from repro.net.server import (
    EngineTCPServer,
    NetServerStats,
    ServerConfig,
    ServerThread,
)

__all__ = [
    "AsyncAggregateSubscription",
    "AsyncEngineClient",
    "AsyncRemoteSnapshot",
    "AsyncSubscription",
    "ConnectionClosedError",
    "EngineClient",
    "EngineTCPServer",
    "MAX_FRAME_BYTES",
    "NetServerStats",
    "ProtocolError",
    "RemoteError",
    "RemoteSnapshot",
    "ServerConfig",
    "ServerThread",
    "Subscription",
    "render_server_metrics",
    "unwire_pairs",
    "unwire_updates",
    "wire_pairs",
    "wire_updates",
]
