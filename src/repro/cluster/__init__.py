"""Multi-node scale-out of the compilation service.

One node = the whole single-process service (HTTP front, async
:class:`~repro.service.jobs.JobEngine`, supervised fork pool, and a
content-addressed store *shard*).  The cluster layer shards the
key space across N such nodes with a consistent-hash ring keyed by the
canonical request identity of :mod:`repro.service.keys`, so any
expensive compilation is computed once *anywhere* and served from the
owning shard ever after:

* :mod:`repro.cluster.ring` — the consistent-hash ring, built once from
  the member list (a fixed 64 virtual nodes each, bounded key movement
  between memberships).
* :mod:`repro.cluster.node` — the cluster node: the service handler
  plus ownership forwarding (a request for a key another node owns is
  proxied there, so every key funnels into exactly one engine's
  single-flight table), steal-on-overload (a node whose admission
  control sheds a request hands it to its least-loaded peer and lands
  the artifact back in its own store), the ``/cluster/*`` peer
  protocol, and :class:`~repro.cluster.node.PeerClients`, the one
  helper every node-to-node and router-to-node call goes through.
* :mod:`repro.cluster.router` — the stateless front-end and the only
  routing entry point for clients: forwards ``/v1/compile|run`` by key,
  fans ``/v1/sweep`` grids out cell-wise, fails over along the ring
  when a node dies, and aggregates ``/metrics`` across the fleet.
* :mod:`repro.cluster.launch` — process-per-node cluster launcher
  (the ``repro cluster`` CLI) and in-process thread clusters for tests.
* :mod:`repro.cluster.chaos` — ``repro chaos --cluster``: SIGKILL a
  whole node mid-batch and require exact reconciliation (every request
  served byte-identically or accounted as a counted, retried fault).
"""

from .ring import HashRing

__all__ = ["HashRing"]
