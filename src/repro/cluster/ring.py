"""Consistent-hash ring: stable key → node placement.

The store shards and the single-flight funnels both need every process
in the cluster (nodes, router, clients) to agree on which node owns a
given request key — and to keep agreeing as nodes join and leave.  A
modulo hash moves almost every key when N changes; a consistent-hash
ring moves only the keys that land on the changed node: ~K/N of them on
average for a K-key space, and *provably* none whose owner did not
change (removing a node can only reassign keys it owned; adding a node
can only claim keys for itself).

Each node is placed at :data:`VNODES` pseudo-random points on a 64-bit
circle (SHA-256 of ``"{node}#{i}"``); a key (already a SHA-256 hex
digest from :mod:`repro.service.keys`, but any string works) maps to
the first node point at or clockwise of its own hash.  Virtual nodes
smooth the load: with 64 points per node the heaviest/lightest node
imbalance stays within a few tens of percent even at N=3.  The count
is a constant, not a setting: a router and a node that disagreed on it
would disagree on ownership.

A ring is built once from its member list (membership changes build a
new ring); sorting ``(point, node)`` pairs makes it independent of the
list's order, ties included.

``preference(key)`` is the failover order: the distinct nodes in ring
order starting at the owner.  Everyone computing the same preference
list is what lets the router and the nodes fail over deterministically
when the owner is down, without any coordination.
"""

from __future__ import annotations

import bisect
import hashlib


def _point(data: str) -> int:
    """A position on the 64-bit ring circle."""
    return int.from_bytes(
        hashlib.sha256(data.encode()).digest()[:8], "big")


#: points per node on the circle
VNODES = 64


class HashRing:
    """A consistent-hash ring over node names (URLs, typically)."""

    def __init__(self, nodes=()):
        self._nodes = frozenset(nodes)
        ring = sorted((_point(f"{node}#{i}"), node)
                      for node in self._nodes for i in range(VNODES))
        self._points = [p for p, _ in ring]   # sorted vnode positions
        self._owners = [n for _, n in ring]   # node at each position

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- placement -------------------------------------------------------

    def node_for(self, key: str) -> str:
        """The owning node of ``key`` (raises on an empty ring)."""
        if not self._points:
            raise ValueError("empty ring")
        at = bisect.bisect_right(self._points, _point(key))
        if at == len(self._points):
            at = 0  # wrap past the top of the circle
        return self._owners[at]

    def preference(self, key: str) -> list[str]:
        """All distinct nodes in ring order from the owner: the
        deterministic failover sequence for ``key``."""
        if not self._points:
            return []
        at = bisect.bisect_right(self._points, _point(key))
        seen: list[str] = []
        n = len(self._points)
        for i in range(n):
            owner = self._owners[(at + i) % n]
            if owner not in seen:
                seen.append(owner)
                if len(seen) == len(self._nodes):
                    break
        return seen
