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

from dataclasses import dataclass, field
from typing import Optional

from .channel import RateTable, Topology


@dataclass(frozen=True)
class FormationGraph:
    """Rooted tree over MU indices, given by each MU's parent: None marks the
    seed and the MUs rejected by everyone. Children (ascending), depths and
    membership are derived; an unconnected MU has no children and depth 0."""

    seed: int
    parent: tuple[Optional[int], ...]
    children: tuple[tuple[int, ...], ...] = field(init=False)
    depth: tuple[int, ...] = field(init=False)
    connected: tuple[bool, ...] = field(init=False)

    def __post_init__(self) -> None:
        parent = tuple(self.parent)
        k = len(parent)
        if not 0 <= self.seed < k:
            raise ValueError("seed index out of range")
        if parent[self.seed] is not None:
            raise ValueError("seed must be parentless")
        children: list[list[int]] = [[] for _ in range(k)]
        depth = [0] * k
        connected = [False] * k
        connected[self.seed] = True
        for node, p in enumerate(parent):
            if p is not None:
                if not 0 <= p < k:
                    raise ValueError(f"MU {node} has parent {p} outside [0, {k})")
                children[p].append(node)
        for node, p in enumerate(parent):
            if p is None:
                continue
            # depth via walk to the seed; detects cycles and dangling parents
            hops = 1
            while p != self.seed:
                p = parent[p]
                if p is None:
                    raise ValueError(f"MU {node} does not reach the seed")
                hops += 1
                if hops > k:
                    raise ValueError("parent list contains a cycle")
            connected[node] = True
            depth[node] = hops
        for name, value in (("parent", parent),
                            ("children", tuple(tuple(c) for c in children)),
                            ("depth", tuple(depth)),
                            ("connected", tuple(connected))):
            object.__setattr__(self, name, value)

    @property
    def mu_count(self) -> int:
        return len(self.parent)


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
                depth[proposer] = depth[candidate] + 1
                connected[proposer] = True
                feed_rate[proposer] = link
                break

    return FormationGraph(seed, tuple(parent))
