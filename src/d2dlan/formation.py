"""Sequential proposal-based tree formation.

Non-seed MUs take turns (a fixed proposal order) walking their preference
lists and proposing to current tree members. The seed admits a proposer only
if the direct link can carry the seed's own cellular download rate, so the
stream stays real time; an already-admitted member admits a proposer only if
the new link is at least as fast as the member's own feeding link. A proposer
rejected by every reachable member stays out for the rest of the slot and
downloads on its own cellular link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .channel import RateTable, Topology


@dataclass(frozen=True)
class FormationGraph:
    """Rooted tree over MU indices; MUs rejected by everyone are tracked as
    unconnected (no parent, no children, depth 0)."""

    seed: int
    parent: tuple[Optional[int], ...]
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    connected: tuple[bool, ...]

    def __post_init__(self) -> None:
        k = len(self.parent)
        if not (len(self.children) == len(self.depth) == len(self.connected) == k):
            raise ValueError("inconsistent field lengths")
        if not 0 <= self.seed < k:
            raise ValueError("seed index out of range")
        if self.parent[self.seed] is not None or not self.connected[self.seed]:
            raise ValueError("seed must be connected and parentless")
        if self.depth[self.seed] != 0:
            raise ValueError("seed depth must be 0")
        child_of = {}
        for node, kids in enumerate(self.children):
            for c in kids:
                if c in child_of:
                    raise ValueError(f"MU {c} appears under two parents")
                child_of[c] = node
        for node in range(k):
            if node == self.seed:
                continue
            if self.connected[node]:
                p = self.parent[node]
                if p is None or not self.connected[p]:
                    raise ValueError(f"connected MU {node} needs a connected parent")
                if self.depth[node] != self.depth[p] + 1:
                    raise ValueError(f"depth of MU {node} inconsistent with parent")
                if child_of.get(node) != p:
                    raise ValueError("parent and children lists disagree")
            else:
                if self.parent[node] is not None or self.children[node]:
                    raise ValueError(f"unconnected MU {node} must be isolated")
                if node in child_of:
                    raise ValueError(f"unconnected MU {node} listed as a child")

    @property
    def mu_count(self) -> int:
        return len(self.parent)

    @classmethod
    def from_parents(cls, seed: int, parents: Sequence[Optional[int]]) -> "FormationGraph":
        """Build a graph from a parent list; None marks the seed and any
        unconnected MUs."""
        k = len(parents)
        children: list[list[int]] = [[] for _ in range(k)]
        depth = [0] * k
        connected = [False] * k
        connected[seed] = True
        for node, p in enumerate(parents):
            if p is not None:
                children[p].append(node)
        # depths via walk to the seed; detects cycles and dangling parents
        for node in range(k):
            if node == seed or parents[node] is None:
                continue
            chain = []
            cur: Optional[int] = node
            while cur is not None and cur != seed:
                chain.append(cur)
                if len(chain) > k:
                    raise ValueError("parent list contains a cycle")
                cur = parents[cur]
            if cur != seed:
                raise ValueError(f"MU {node} does not reach the seed")
            connected[node] = True
            depth[node] = len(chain)
        return cls(seed=seed,
                   parent=tuple(parents),
                   children=tuple(tuple(sorted(c)) for c in children),
                   depth=tuple(depth),
                   connected=tuple(connected))


@dataclass(frozen=True)
class ProposalOrder:
    """Order in which MUs get their turn to propose."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError("proposal order must not repeat indices")


@dataclass(frozen=True)
class PreferenceMatrix:
    """Row i: all other MUs sorted by descending SR rate from i, ties broken
    by ascending index."""

    prefs: tuple[tuple[int, ...], ...]


def build_preferences(topology: Topology, rates: RateTable) -> PreferenceMatrix:
    k = topology.mu_count
    if k < 2:
        raise ValueError("preferences need at least two MUs")
    rows = []
    for i in range(k):
        peers = [j for j in range(k) if j != i]
        peers.sort(key=lambda j: (-rates.sr_rate[i, j], j))
        rows.append(tuple(peers))
    return PreferenceMatrix(prefs=tuple(rows))


def rotate_order(order: ProposalOrder) -> ProposalOrder:
    """Cyclic left rotation by one position."""
    seq = order.order
    if len(seq) <= 1:
        return order
    return ProposalOrder(order=seq[1:] + seq[:1])


def estimate_graph(topology: Topology, rates: RateTable, seed: int,
                   order: ProposalOrder, prefs: PreferenceMatrix,
                   max_hops: int) -> FormationGraph:
    """Run the proposal walk for one seed and return the resulting tree.

    Proposers are processed strictly in ``order``. Each proposer scans its
    preference row restricted to current members shallower than ``max_hops``
    and joins under the first member that accepts; the seed accepts a link
    carrying at least its own cellular rate, while a member accepts a link at
    least as fast as the link feeding that member. A proposer rejected by all
    reachable members stays unconnected for the slot.
    """
    k = topology.mu_count
    if not 0 <= seed < k:
        raise ValueError("seed index out of range")
    if max_hops < 1:
        raise ValueError("max_hops must be at least 1")
    if sorted(order.order) != sorted(x for x in range(k) if x != seed):
        raise ValueError("order must be a permutation of the non-seed MUs")

    parent: list[Optional[int]] = [None] * k
    children: list[list[int]] = [[] for _ in range(k)]
    depth = [0] * k
    connected = [False] * k
    connected[seed] = True
    # rate of the link each member is fed through; the seed is fed by its
    # cellular link
    feed_rate = [0.0] * k
    feed_rate[seed] = float(rates.lr_rate[seed])

    for proposer in order.order:
        for candidate in prefs.prefs[proposer]:
            if not connected[candidate] or depth[candidate] >= max_hops:
                continue
            link = float(rates.sr_rate[candidate, proposer])
            if link >= feed_rate[candidate]:
                parent[proposer] = candidate
                children[candidate].append(proposer)
                depth[proposer] = depth[candidate] + 1
                connected[proposer] = True
                feed_rate[proposer] = link
                break

    return FormationGraph(seed=seed,
                          parent=tuple(parent),
                          children=tuple(tuple(c) for c in children),
                          depth=tuple(depth),
                          connected=tuple(connected))
