"""Cluster launchers: process-per-node fleets and in-process test rigs.

``repro cluster --nodes 3 --store DIR`` starts N node *processes* (each
a full service with its own engine, fork pool, and store shard), forms
the ring, and runs a router in the foreground::

    repro cluster --nodes 3 --store /tmp/shards --jobs 1
    # router on http://127.0.0.1:8733 -> 3 node processes

Two launchers back it:

* :class:`ProcessCluster` — one OS process per node (spawned via
  ``python -m repro.cluster.launch --serve-node``), real enough to
  SIGKILL: the chaos suite and the load benchmark kill whole nodes and
  measure what the survivors do.
* :class:`ThreadCluster` — N nodes on daemon threads in one process,
  for unit/integration tests that need a live cluster without the
  process-spawn cost (each node still has its own engine and shard).

Ports are allocated by binding port 0 and reading back the kernel's
choice; the brief close-then-rebind window is benign on localhost
(``allow_reuse_address``), and every launcher waits for ``/healthz``
on each node before declaring the cluster up.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from .node import PeerClients, make_node, serve_node_background
from .router import serve_router_background


def free_ports(n: int, host: str = "127.0.0.1") -> list[int]:
    """``n`` distinct currently-free TCP ports (bind-0 then read back)."""
    socks, ports = [], []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind((host, 0))
            socks.append(s)
            ports.append(s.getsockname()[1])
    finally:
        for s in socks:
            s.close()
    return ports


def _wait_healthy(urls: list[str], deadline_s: float = 30.0) -> None:
    end = time.monotonic() + deadline_s
    probes = PeerClients(deadline_s)
    pending = list(urls)
    while pending:
        url = pending[0]
        health = probes.probe(url, "/healthz")
        if health and health.get("ok"):
            pending.pop(0)
            continue
        if time.monotonic() > end:
            raise TimeoutError(f"node {url} not healthy after {deadline_s}s")
        time.sleep(0.05)


class ThreadCluster:
    """N in-process nodes on daemon threads (test/benchmark rig)."""

    def __init__(self, n: int = 3, store_root: Path | None = None,
                 jobs: int = 1, max_pending: int = 64,
                 default_timeout: float = 120.0):
        self.servers, self.engines, self.states = [], [], []
        for i in range(n):
            store = (Path(store_root) / f"node{i}"
                     if store_root is not None else None)
            httpd, engine, cluster, _url = serve_node_background(
                store_dir=store, jobs=jobs, max_pending=max_pending,
                default_timeout=default_timeout)
            self.servers.append(httpd)
            self.engines.append(engine)
            self.states.append(cluster)
        self.urls = [c.self_url for c in self.states]
        for c in self.states:
            c.join(self.urls)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        for httpd in self.servers:
            httpd.shutdown()
        for engine in self.engines:
            engine.close()


class ProcessCluster:
    """N node processes — kill-able for real (chaos, load benchmark)."""

    def __init__(self, n: int = 3, store_root: Path | None = None,
                 jobs: int = 1, max_pending: int = 64,
                 default_timeout: float = 120.0, host: str = "127.0.0.1",
                 quiet: bool = True):
        self.n = n
        self.store_root = Path(store_root) if store_root is not None else None
        self.jobs = jobs
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        self.host = host
        self.quiet = quiet
        self.urls: list[str] = []
        self.procs: dict[str, subprocess.Popen] = {}

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ProcessCluster":
        ports = free_ports(self.n, self.host)
        self.urls = [f"http://{self.host}:{p}" for p in ports]
        src_dir = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = (src_dir + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_dir)
        for i, port in enumerate(ports):
            cmd = [sys.executable, "-m", "repro.cluster.launch",
                   "--serve-node", "--host", self.host, "--port", str(port),
                   "--peers", ",".join(self.urls),
                   "--jobs", str(self.jobs),
                   "--max-pending", str(self.max_pending),
                   "--timeout", str(self.default_timeout)]
            if self.store_root is not None:
                cmd += ["--store", str(self.store_root / f"node{i}")]
            out = subprocess.DEVNULL if self.quiet else None
            self.procs[self.urls[i]] = subprocess.Popen(
                cmd, env=env, stdout=out, stderr=out)
        _wait_healthy(self.urls)
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def alive(self) -> list[str]:
        return [u for u, p in self.procs.items() if p.poll() is None]

    def kill(self, url: str) -> None:
        """SIGKILL one node (and its worker children): no shutdown
        hooks, no flushes — the failure mode the chaos suite wants."""
        p = self.procs[url]
        if p.poll() is None:
            try:
                os.kill(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            p.wait(timeout=10)

    def stop(self) -> None:
        for p in self.procs.values():
            if p.poll() is None:
                p.terminate()
        for p in self.procs.values():
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait(timeout=10)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _serve_node_forever(args) -> int:
    """Internal ``--serve-node`` entry: one node process of a cluster."""
    httpd, engine, cluster = make_node(
        host=args.host, port=args.port, store_dir=args.store,
        jobs=args.jobs, max_pending=args.max_pending,
        default_timeout=args.timeout, quiet=not args.verbose)
    peers = [u for u in (args.peers or "").split(",") if u]
    cluster.join(peers if peers else [cluster.self_url])
    print(f"cluster node {cluster.self_url} "
          f"(ring of {len(cluster.ring)})", flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
        engine.close()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro cluster",
        description="Run a multi-node compilation-service cluster "
                    "(N node processes + a router front-end).")
    ap.add_argument("--nodes", type=int, default=3, metavar="N",
                    help="node processes (default: 3)")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8733,
                    help="router port (default: 8733; 0 = pick free)")
    ap.add_argument("--store", metavar="DIR", default=None,
                    help="shard root: node i stores under DIR/node<i>")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes per node (default: 1)")
    ap.add_argument("--max-pending", type=int, default=64, metavar="N")
    ap.add_argument("--timeout", type=float, default=120.0)
    ap.add_argument("--verbose", action="store_true")
    # internal: run as a single node process of a cluster
    ap.add_argument("--serve-node", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--peers", default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.serve_node:
        return _serve_node_forever(args)

    cluster = ProcessCluster(
        n=args.nodes, store_root=args.store, jobs=args.jobs,
        max_pending=args.max_pending, default_timeout=args.timeout,
        host=args.host, quiet=not args.verbose)
    cluster.start()
    httpd, _router, url = serve_router_background(
        cluster.urls, host=args.host, port=args.port,
        quiet=not args.verbose)
    store_note = f", shards under {args.store}" if args.store else ""
    print(f"repro cluster: router {url} over {args.nodes} node(s)"
          f"{store_note}", flush=True)
    for u in cluster.urls:
        print(f"  node {u}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
        cluster.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
