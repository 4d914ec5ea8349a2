"""Cluster-layer tests: ring placement, ownership forwarding,
cross-node single-flight, and steal-on-overload.

The ring tests are pure; the service tests run small in-process
clusters (:class:`~repro.cluster.launch.ThreadCluster` or hand-built
nodes) over real HTTP on localhost.
"""

import hashlib
import threading

import pytest

from repro.cluster.launch import ThreadCluster
from repro.cluster.node import _key_of, serve_node_background
from repro.cluster.ring import HashRing
from repro.cluster.router import serve_router_background
from repro.experiments.sweep import WIDTHS
from repro.pipeline import Level
from repro.service.client import (
    ServiceClient,
    ServiceOverloaded,
    ServiceRequestError,
)
from repro.service.server import _req_fields, _sweep_fields
from repro.workloads import all_workloads

NODES = ("http://n1:1", "http://n2:1", "http://n3:1")


def keys(n: int) -> list[str]:
    return [hashlib.sha256(f"key-{i}".encode()).hexdigest()
            for i in range(n)]


def fields(workload="dotprod", level=4, width=8) -> dict:
    f = _req_fields({"workload": workload, "level": level, "width": width})
    f.pop("timeout")
    return f


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_placement_independent_of_insertion_order(self):
        a = HashRing(NODES)
        b = HashRing(reversed(NODES))
        for k in keys(200):
            assert a.node_for(k) == b.node_for(k)
            assert a.preference(k) == b.preference(k)

    def test_adding_a_node_only_moves_keys_to_it(self):
        """Consistent hashing's contract: growing the ring reassigns
        *only* the keys the new node claims — every moved key moves to
        the newcomer, and the moved fraction is ~K/N."""
        ks = keys(800)
        before = {k: HashRing(NODES).node_for(k) for k in ks}
        grown = HashRing(NODES + ("http://n4:1",))
        moved = 0
        for k in ks:
            owner = grown.node_for(k)
            if owner != before[k]:
                assert owner == "http://n4:1", \
                    f"{k[:12]} moved between old nodes"
                moved += 1
        # expectation is K/4 = 200; generous bounds absorb vnode noise
        assert 0 < moved < len(ks) // 2

    def test_removing_a_node_only_moves_its_keys(self):
        ks = keys(800)
        full = HashRing(NODES)
        before = {k: full.node_for(k) for k in ks}
        shrunk = HashRing(NODES[1:])
        for k in ks:
            if before[k] != NODES[0]:
                assert shrunk.node_for(k) == before[k], \
                    f"{k[:12]} moved although its owner survived"
            else:
                assert shrunk.node_for(k) != NODES[0]

    def test_vnodes_spread_load(self):
        counts = {n: 0 for n in NODES}
        ring = HashRing(NODES)
        for k in keys(3000):
            counts[ring.node_for(k)] += 1
        # perfect balance is 1000 each; vnode smoothing keeps every
        # node within a factor of ~2 of fair share
        assert all(400 < c < 1900 for c in counts.values()), counts

    def test_preference_is_owner_first_all_nodes_deterministic(self):
        ring = HashRing(NODES)
        for k in keys(50):
            pref = ring.preference(k)
            assert pref[0] == ring.node_for(k)
            assert sorted(pref) == sorted(NODES)
            assert pref == ring.preference(k)

    def test_empty_ring(self):
        ring = HashRing()
        with pytest.raises(ValueError):
            ring.node_for(keys(1)[0])
        assert ring.preference(keys(1)[0]) == []
        assert HashRing(["http://solo:1"]).node_for(keys(1)[0]) \
            == "http://solo:1"

    def test_duplicate_member_counts_once(self):
        ring = HashRing(NODES + (NODES[0],))
        assert len(ring) == 3
        assert ring.nodes == sorted(NODES)
        plain = HashRing(NODES)
        for k in keys(200):
            assert ring.preference(k) == plain.preference(k)


# ---------------------------------------------------------------------------
# ownership forwarding (the cross-node single-flight funnel)
# ---------------------------------------------------------------------------


class TestForwarding:
    def test_any_node_serves_any_key_from_the_owner(self, tmp_path):
        with ThreadCluster(n=3, store_root=tmp_path) as tc:
            key = _key_of("run", fields())
            ring = tc.states[0].ring
            owner = ring.node_for(key)
            non_owners = [u for u in tc.urls if u != owner]

            r1 = ServiceClient(non_owners[0], retry=None).run("dotprod")
            assert r1["node"] == owner
            assert r1.get("forwarded") is True
            assert r1["cache"] == "miss"

            # via the *other* non-owner: same artifact, now a hit
            r2 = ServiceClient(non_owners[1], retry=None).run("dotprod")
            assert r2["node"] == owner
            assert r2["cache"] == "hit"
            assert r2["result"] == r1["result"]

            fwd_in = tc.states[tc.urls.index(owner)].counters["forwarded_in"]
            assert fwd_in == 2

    def test_hop_header_is_terminal(self, tmp_path):
        """One node-to-node hop max: a request that already hopped is
        served locally even by a non-owner (no forwarding loops)."""
        with ThreadCluster(n=3, store_root=tmp_path) as tc:
            key = _key_of("run", fields())
            owner = tc.states[0].ring.node_for(key)
            other = [u for u in tc.urls if u != owner][0]
            c = ServiceClient(other, retry=None,
                              headers={"X-Repro-Hop": "route"})
            r = c.run("dotprod")
            assert r["node"] == other  # computed here, not re-forwarded


class TestSweepValidation:
    def test_defaults_cover_the_whole_grid(self):
        f = _sweep_fields({"workloads": ["add"]})
        assert f["levels"] == [int(level) for level in Level]
        assert f["widths"] == list(WIDTHS)

    @pytest.mark.parametrize("grid", [{"levels": [9]}, {"widths": [3]},
                                      {"levels": []}])
    def test_node_and_router_reject_sweeps_outside_the_grid(self, tmp_path,
                                                            grid):
        with ThreadCluster(n=1, store_root=tmp_path) as tc:
            httpd, _, router_url = serve_router_background(tc.urls)
            try:
                for url in (tc.urls[0], router_url):
                    with pytest.raises(ServiceRequestError) as ei:
                        ServiceClient(url, retry=None).sweep(["add"], **grid)
                    assert ei.value.status == 400, url
            finally:
                httpd.shutdown()


class TestCrossNodeSingleFlight:
    def test_same_key_via_two_nodes_compiles_once(self, tmp_path):
        """The single-flight guarantee across the fleet: the same key
        submitted concurrently to two *different* nodes funnels into
        the owner's engine and compiles exactly once."""
        with ThreadCluster(n=3, store_root=tmp_path) as tc:
            replies = []
            lock = threading.Lock()

            def submit(url):
                r = ServiceClient(url, retry=None).run("sum", level=4,
                                                       width=8)
                with lock:
                    replies.append(r)

            threads = [threading.Thread(target=submit, args=(u,))
                       for u in tc.urls]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len(replies) == 3
            results = [r["result"] for r in replies]
            assert results[0] == results[1] == results[2]
            computed = sum(e.counters["computed"] for e in tc.engines)
            assert computed == 1, (
                f"key compiled {computed}x across the fleet")
            # all three served by the owning node
            assert len({r["node"] for r in replies}) == 1


# ---------------------------------------------------------------------------
# steal-on-overload
# ---------------------------------------------------------------------------


def _two_nodes(tmp_path, a_pending=0, b_pending=64):
    """Two joined nodes; node A sheds everything by default."""
    a = serve_node_background(store_dir=tmp_path / "a", jobs=1,
                              max_pending=a_pending)
    b = serve_node_background(store_dir=tmp_path / "b", jobs=1,
                              max_pending=b_pending)
    urls = [a[3], b[3]]
    for rig in (a, b):
        rig[2].join(urls)
    return a, b


def _owned_by(rig) -> str:
    """A corpus workload whose default run key the given node owns.

    Ownership hangs on the nodes' ephemeral-port URLs, so scan the whole
    corpus rather than a handful of probes."""
    cluster, url = rig[2], rig[3]
    for w in all_workloads():
        if cluster.ring.node_for(_key_of("run", fields(w.name))) == url:
            return w.name
    pytest.fail(f"no workload owned by {url}")


def _close(*rigs):
    for rig in rigs:
        rig[0].shutdown()
        rig[1].close()


class TestWorkStealing:
    def test_shed_work_is_stolen_by_the_peer(self, tmp_path):
        a, b = _two_nodes(tmp_path)
        try:
            # a config whose key node A owns, so no ownership forward
            # happens before admission control sheds it on A
            wl = _owned_by(a)
            key = _key_of("run", fields(wl))

            r = ServiceClient(a[3], retry=None).run(wl)
            assert r["cache"] == "stolen"
            assert r["stolen_by"] == b[3]
            assert r["result"]["workload"] == wl
            assert a[2].counters["steals_out"] == 1
            assert b[2].counters["steals_in"] == 1
            # the artifact landed on the *owner's* shard, where the
            # ring says it lives
            assert a[1].store.contains(key)
        finally:
            _close(a, b)

    def test_steal_request_is_terminal_on_the_peer(self, tmp_path):
        """A stolen computation never cascades: if the thief's peer is
        itself overloaded it sheds (429) instead of re-stealing."""
        a, b = _two_nodes(tmp_path, b_pending=0)
        try:
            wl = _owned_by(a)  # A owns it: a direct shed, no forward
            with pytest.raises(ServiceOverloaded):
                ServiceClient(a[3], retry=None).run(wl)
            # A offered B the work once; B, saturated, shed it without
            # offering it back — and nobody computed anything
            assert a[2].counters["steals_out"] == 0
            assert b[2].counters["steals_in"] == 1
            assert a[2].counters["steals_in"] == 0
            assert sum(e.counters["computed"] for e in (a[1], b[1])) == 0
        finally:
            _close(a, b)

    def test_saturated_node_sheds_a_sweep(self, tmp_path):
        """Sweeps are never stolen: a saturated node answers 429 with
        Retry-After even while its peer is idle, like a single node."""
        a, b = _two_nodes(tmp_path)
        try:
            with pytest.raises(ServiceOverloaded) as ei:
                ServiceClient(a[3], retry=None).sweep(["add"])
            assert ei.value.retry_after == 1.0
            assert b[1].counters["computed"] == 0
        finally:
            _close(a, b)


class TestPeerErrorRelay:
    def test_shed_429_keeps_retry_after_via_node_and_router(self, tmp_path):
        """An owner's 429 reaches the caller with its Retry-After, both
        through a forwarding node and through the router."""
        a, b = _two_nodes(tmp_path, b_pending=0)
        httpd, _, router_url = serve_router_background([a[3], b[3]])
        try:
            wl = _owned_by(b)  # the saturated owner; A forwards to it
            for url in (a[3], router_url):
                with pytest.raises(ServiceOverloaded) as ei:
                    ServiceClient(url, retry=None).run(wl)
                assert ei.value.retry_after == 1.0, url
        finally:
            httpd.shutdown()
            _close(a, b)
