"""A cluster node: the whole service, plus sharding & peer protocol.

A node is the single-process compilation service (HTTP handler, async
job engine, supervised fork pool, store shard) extended with three
cluster behaviors:

* **Ownership forwarding (the single-flight funnel).**  Every request
  key has exactly one owner on the consistent-hash ring.  A node
  receiving ``/v1/compile|run`` for a key it does not own proxies the
  request to the owner and relays the reply (*forwarded-wait*: the
  caller's connection waits while the owner computes).  Because every
  copy of a key funnels into the owner's
  :class:`~repro.service.jobs.JobEngine`, its existing single-flight
  table *is* the cluster-wide in-flight registry — the same key
  submitted to two different nodes compiles exactly once, with zero new
  coordination state.  If the owner is unreachable the node computes
  locally instead (counted as ``failover_local`` — the recovery path
  the chaos oracle reconciles against).
* **Work-stealing on overload.**  When admission control sheds a
  request (pending queue past the soft-shed threshold), the node does
  not 429 immediately: it offers the computation to its least-loaded
  peer over ``POST /cluster/compute``, waits, lands the resulting
  artifact back on its *own* shard (it is the owner), and serves the
  reply marked ``"cache": "stolen"``.  Concurrent sheds of the same key
  join one steal through a small in-flight registry, mirroring the
  engine's dedup.  Only when no peer can take the work does the node
  fall back to degraded store serving and finally a real 429.  Sweeps
  are not stolen: a saturated node answers them 429, like a single
  node.
* **Peer protocol** (all JSON over the existing HTTP front)::

      POST /cluster/compute   {kind, workload, level, width, ...}
                              compute here regardless of ownership
      GET  /cluster/info      membership + load (queue depth, tiers)

Hop headers (``X-Repro-Hop: forward|route|steal``) are loop guards: a
request that already made one node-to-node (or router-to-node) hop is
terminal — it is served locally, never re-forwarded, so no routing loop
can form even with a stale ring.

Every call one cluster process makes to another — router to node, node
to node — goes through :class:`PeerClients`: one client cache, one loop
over candidate URLs.  A peer's error reply (429, 503, ...) propagates
as :class:`~repro.service.client.ServiceRequestError` and the service
handler relays it, ``Retry-After`` included.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from concurrent.futures import Future
from http.server import ThreadingHTTPServer
from pathlib import Path

from ..service.client import (
    ServiceClient,
    ServiceOverloaded,
    ServiceRequestError,
    ServiceUnavailable,
)
from ..service.jobs import JobEngine
from ..service.keys import request_key, workload_fingerprint
from ..service.server import (
    ServiceError,
    ServiceHTTPServer,
    _Handler,
    _req_fields,
)
from ..service.store import ArtifactStore
from .ring import HashRing

#: one node-to-node hop is allowed; these header values are terminal
HOP_HEADER = "X-Repro-Hop"
#: read timeout of hop-less peer calls (membership/load/health probes)
PROBE_TIMEOUT_S = 15.0


class PeerClients:
    """The one way a cluster process calls its peers.

    Clients are cached per ``(url, hop)`` and carry no transport retry:
    a dead peer should fail over along the ring immediately, not back
    off against a corpse.  Hop-less calls are quick probes; calls with a
    hop header wait for a computation (*forwarded-wait*), so they get
    ``wait_s``.
    """

    def __init__(self, wait_s: float):
        self.wait_s = wait_s
        self._lock = threading.Lock()
        self._clients: dict[tuple[str, str | None], ServiceClient] = {}

    def _client(self, url: str, hop: str | None) -> ServiceClient:
        with self._lock:
            c = self._clients.get((url, hop))
            if c is None:
                c = ServiceClient(
                    url, timeout=self.wait_s if hop else PROBE_TIMEOUT_S,
                    retry=None, headers={HOP_HEADER: hop} if hop else {})
                self._clients[(url, hop)] = c
        return c

    def first_reply(self, method: str, path: str, body: dict | None,
                    urls, hop: str | None = None, *,
                    skip=(ServiceUnavailable,),
                    on_skip=None) -> tuple[str, dict] | None:
        """``(url, reply)`` from the first of ``urls`` that answers.

        A URL whose call raises one of ``skip`` is passed over (and
        reported to ``on_skip(url)``); any other error propagates.
        None when every URL was skipped.
        """
        for url in urls:
            try:
                return url, self._client(url, hop)._call(method, path, body)
            except skip:
                if on_skip is not None:
                    on_skip(url)
        return None

    def probe(self, url: str, path: str) -> dict | None:
        """``GET path`` on one peer; None if it is down or errs."""
        got = self.first_reply("GET", path, None, [url],
                               skip=(ServiceUnavailable, ServiceRequestError))
        return None if got is None else got[1]


@functools.lru_cache(maxsize=256)
def _fingerprint(workload: str) -> str:
    """Kernel fingerprints are pure in the workload name within one
    process (CODE_VERSION salts actual code changes), so routing does
    not rebuild the kernel on every request."""
    return workload_fingerprint(workload)


def _key_of(kind: str, f: dict) -> str:
    """The canonical request key of validated request fields."""
    try:
        fp = _fingerprint(f["workload"])
    except KeyError as e:  # get_workload: unknown workload name
        raise ServiceError(400, f"unknown workload {e}") from None
    return request_key(
        kind, f["workload"], f["level"], f["width"], seed=f["seed"],
        check=f["check"], check_ir=f["check_ir"],
        disable=tuple(f["disable"]),
        fingerprint=fp,
    )


class ClusterState:
    """One node's view of the cluster: ring, peer clients, counters."""

    def __init__(self, engine: JobEngine):
        self.self_url: str | None = None
        self.ring: HashRing | None = None
        self.engine = engine
        self.clients = PeerClients(engine.default_timeout + 30.0)
        self._lock = threading.Lock()
        #: steal-path single-flight: key -> Future of the reply dict
        self._steal_inflight: dict[str, Future] = {}
        self.counters: Counter = Counter({
            "forwarded_out": 0,   # proxied to the key's owner
            "forwarded_in": 0,    # served here for another node's caller
            "failover_local": 0,  # owner unreachable: computed here
            "steals_out": 0,      # shed work handed to a peer
            "steals_in": 0,       # peer work computed here
            "steal_joined": 0,    # duplicate sheds joined one steal
        })

    # -- membership ------------------------------------------------------

    def join(self, urls: list[str]) -> None:
        """Adopt the cluster membership (must include this node)."""
        if self.self_url is None:
            raise RuntimeError("node has no bound URL yet")
        if self.self_url not in urls:
            raise ValueError(f"{self.self_url} not in membership {urls}")
        self.ring = HashRing(urls)

    @property
    def active(self) -> bool:
        return self.ring is not None and len(self.ring) > 1

    def peers(self) -> list[str]:
        if self.ring is None:
            return []
        return [u for u in self.ring.nodes if u != self.self_url]

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counters)

    # -- forwarding ------------------------------------------------------

    def forward(self, path: str, body: dict, owner: str) -> dict | None:
        """Proxy a request to the owning node; None if it is down."""
        got = self.clients.first_reply("POST", path, body, [owner],
                                       "forward")
        if got is None:
            return None
        self.count("forwarded_out")
        reply = got[1]
        reply["forwarded"] = True
        return reply

    # -- work stealing ---------------------------------------------------

    def peer_loads(self) -> list[tuple[int, str]]:
        """(queue_depth, url) of reachable peers, least loaded first."""
        infos = {url: self.clients.probe(url, "/cluster/info")
                 for url in self.peers()}
        return sorted((int(info.get("queue_depth", 0)), url)
                      for url, info in infos.items() if info is not None)

    def steal(self, kind: str, f: dict, timeout: float | None,
              key: str) -> dict | None:
        """Hand a shed computation to a peer; None if no peer can take
        it.  Duplicate sheds of one key join a single steal."""
        if not self.active:
            return None
        with self._lock:
            fut = self._steal_inflight.get(key)
            if fut is not None:
                joiner = True
            else:
                fut = Future()
                self._steal_inflight[key] = fut
                joiner = False
        if joiner:
            self.count("steal_joined")
            try:
                reply = fut.result(
                    timeout=(timeout if timeout is not None else
                             self.engine.default_timeout) + 30.0)
            except Exception:
                return None
            return None if reply is None else dict(reply)
        try:
            reply = self._steal_once(kind, f, timeout, key)
            fut.set_result(reply)
            return reply
        except BaseException as e:
            fut.set_exception(e)
            raise
        finally:
            with self._lock:
                self._steal_inflight.pop(key, None)

    def _steal_once(self, kind: str, f: dict, timeout: float | None,
                    key: str) -> dict | None:
        body = {"kind": kind, **f}
        if timeout is not None:
            body["timeout"] = timeout
        try:
            # a dead or saturated peer: try the next one
            got = self.clients.first_reply(
                "POST", "/cluster/compute", body,
                [url for _, url in self.peer_loads()], "steal",
                skip=(ServiceUnavailable, ServiceOverloaded))
        except ServiceRequestError:
            # a real compilation failure would recur anywhere; stop
            # burning peers and let the local shed path answer
            return None
        if got is None:
            return None
        url, reply = got
        self.count("steals_out")
        payload = reply.get("result")
        if payload is not None:
            # this node owns the key: land the artifact on *its* shard
            # so the cluster's placement stays consistent
            self.engine.store_put(key, payload)
        return {"job": None, "cache": "stolen", "result": payload,
                "node": self.self_url, "stolen_by": url}


class _NodeHandler(_Handler):
    """The service handler plus cluster routing (see module docstring)."""

    server_version = "repro-cluster-node/1"
    cluster: ClusterState = None

    # -- GET -------------------------------------------------------------

    def _handle_get(self) -> None:
        cl = self.cluster
        if self.path == "/cluster/info":
            ring = cl.ring.nodes if cl.ring is not None else []
            self._send(200, {
                "node": cl.self_url,
                "nodes": ring,
                "queue_depth": self.engine.queue_depth,
                "soft_pending": self.engine.soft_pending,
                "max_pending": self.engine.max_pending,
                "counters": cl.snapshot(),
                "computed": self.engine.counters["computed"],
            })
        elif self.path == "/metrics":
            m = self.engine.metrics()
            m["cluster"] = {"node": cl.self_url, **cl.snapshot()}
            self._send(200, m)
        else:
            super()._handle_get()

    # -- POST ------------------------------------------------------------

    def _handle_post(self, body: dict) -> None:
        cl = self.cluster
        if self.path == "/cluster/compute":
            kind = str(body.get("kind", "run"))
            if kind not in ("compile", "run"):
                raise ServiceError(400, f"bad kind {kind!r}")
            f = _req_fields(body)
            timeout = f.pop("timeout")
            if self.headers.get(HOP_HEADER) == "steal":
                cl.count("steals_in")
            self._serve_single(kind, f, timeout,
                               extra={"node": cl.self_url})
            return
        if self.path in ("/v1/compile", "/v1/run") and cl.active:
            kind = self.path.rsplit("/", 1)[1]
            f = _req_fields(body)
            timeout = f.pop("timeout")
            key = _key_of(kind, f)
            owner = cl.ring.node_for(key)
            hop = self.headers.get(HOP_HEADER)
            if owner != cl.self_url and hop is None:
                reply = cl.forward(self.path, body, owner)
                if reply is not None:
                    self._send(200, reply)
                    return
                # owner down: compute here so the request still succeeds
                # (the artifact lands on this shard; the chaos oracle
                # counts this as the recovery of a node-loss fault)
                cl.count("failover_local")
            elif hop == "forward":
                cl.count("forwarded_in")
            self._serve_single(kind, f, timeout,
                               extra={"node": cl.self_url, "owner": owner})
            return
        super()._handle_post(body)

    def _on_overload(self, kind: str, f: dict,
                     timeout: float | None) -> dict | None:
        cl = self.cluster
        if cl.active and self.headers.get(HOP_HEADER) != "steal":
            reply = cl.steal(kind, f, timeout, _key_of(kind, f))
            if reply is not None:
                return reply
        return super()._on_overload(kind, f, timeout)


def make_node(
    host: str = "127.0.0.1",
    port: int = 0,
    store_dir: str | Path | None = None,
    jobs: int = 1,
    max_pending: int = 64,
    max_store_bytes: int | None = None,
    default_timeout: float = 120.0,
    quiet: bool = True,
) -> tuple[ThreadingHTTPServer, JobEngine, ClusterState]:
    """Build (but do not start) one cluster node; port 0 picks a free
    port.  Call ``cluster.join(all_urls)`` once every node is bound."""
    store = (ArtifactStore(Path(store_dir), max_bytes=max_store_bytes)
             if store_dir is not None else None)
    engine = JobEngine(store=store, jobs=jobs, max_pending=max_pending,
                       default_timeout=default_timeout)
    cluster = ClusterState(engine)
    handler = type("NodeHandler", (_NodeHandler,),
                   {"engine": engine, "cluster": cluster, "quiet": quiet})
    httpd = ServiceHTTPServer((host, port), handler)
    bound_host, bound_port = httpd.server_address[:2]
    cluster.self_url = f"http://{bound_host}:{bound_port}"
    return httpd, engine, cluster


def serve_node_background(**kwargs):
    """Start one node on a daemon thread; returns
    ``(httpd, engine, cluster, url)``.  Test/benchmark helper."""
    httpd, engine, cluster = make_node(**kwargs)
    threading.Thread(target=httpd.serve_forever, daemon=True,
                     name="repro-cluster-node-http").start()
    return httpd, engine, cluster, cluster.self_url
