import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from d2dlan import (FormationGraph, PowerConstants, ProposalOrder, RadioConfig,
                    Topology)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def radio():
    return RadioConfig()


@pytest.fixture
def power():
    return PowerConstants()


def gain_topology(gain_lr, gain_sr, radio=None, area=400.0):
    """Topology with explicit gains; positions are placeholders on a line."""
    k = len(gain_lr)
    positions = np.column_stack([np.linspace(10.0, area - 10.0, k),
                                 np.full(k, area / 2.0)])
    sr = np.asarray(gain_sr, dtype=float)
    return Topology(
        bs_position=np.array([area / 2.0, area / 2.0]),
        mu_positions=positions,
        gain_lr=np.asarray(gain_lr, dtype=float),
        gain_sr=sr,
        radio=radio if radio is not None else RadioConfig(),
    )


def symmetric_gain_matrix(k, pairs):
    """Build a K x K symmetric gain matrix from {(i, j): gain} entries."""
    sr = np.zeros((k, k))
    for (i, j), g in pairs.items():
        sr[i, j] = g
        sr[j, i] = g
    return sr


def star(seed, k):
    return FormationGraph(seed, tuple(None if x == seed else seed
                                      for x in range(k)))


def chain(nodes, k):
    """Rooted path: nodes[0] is the seed; MUs outside nodes stay unconnected."""
    parents = [None] * k
    for prev, node in zip(nodes, nodes[1:]):
        parents[node] = prev
    return FormationGraph(nodes[0], tuple(parents))


def dump_fixture(topology, seed, order, max_hops, graph):
    """Textual dump of (positions, gains, order, resulting parents) used as
    a golden regression fixture."""
    lines = ["# formation fixture", f"k {topology.mu_count}"]
    lines.append("bs " + " ".join(f"{v:.12g}" for v in topology.bs_position))
    for i, p in enumerate(topology.mu_positions):
        lines.append(f"mu {i} " + " ".join(f"{v:.12g}" for v in p))
    lines.append("gain_lr " + " ".join(f"{v:.12g}" for v in topology.gain_lr))
    k = topology.mu_count
    for i in range(k):
        for j in range(i + 1, k):
            lines.append(f"gain_sr {i} {j} {topology.gain_sr[i, j]:.12g}")
    lines.append(f"seed {seed}")
    lines.append("order " + " ".join(str(x) for x in order.order))
    lines.append(f"max_hops {max_hops}")
    for i, p in enumerate(graph.parent):
        lines.append(f"parent {i} {'-' if p is None else p}")
    return "\n".join(lines) + "\n"


def load_fixture(text: str, radio=None):
    """Parse a fixture dump; returns (topology, seed, order, max_hops,
    expected_parents)."""
    k = None
    bs = None
    positions = {}
    gain_lr = None
    sr_entries = []
    seed = None
    order = None
    max_hops = None
    parents = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        if key == "k":
            k = int(parts[1])
        elif key == "bs":
            bs = [float(parts[1]), float(parts[2])]
        elif key == "mu":
            positions[int(parts[1])] = [float(parts[2]), float(parts[3])]
        elif key == "gain_lr":
            gain_lr = [float(v) for v in parts[1:]]
        elif key == "gain_sr":
            sr_entries.append((int(parts[1]), int(parts[2]), float(parts[3])))
        elif key == "seed":
            seed = int(parts[1])
        elif key == "order":
            order = ProposalOrder(order=tuple(int(v) for v in parts[1:]))
        elif key == "max_hops":
            max_hops = int(parts[1])
        elif key == "parent":
            parents[int(parts[1])] = None if parts[2] == "-" else int(parts[2])
        else:
            raise ValueError(f"unknown fixture key: {key}")
    if k is None or bs is None or gain_lr is None or seed is None \
            or order is None or max_hops is None:
        raise ValueError("incomplete fixture")
    gain_sr = np.zeros((k, k))
    for i, j, g in sr_entries:
        gain_sr[i, j] = g
        gain_sr[j, i] = g
    topology = Topology(
        bs_position=np.array(bs),
        mu_positions=np.array([positions[i] for i in range(k)]),
        gain_lr=np.array(gain_lr),
        gain_sr=gain_sr,
        radio=radio if radio is not None else RadioConfig(),
    )
    expected = tuple(parents.get(i) for i in range(k))
    return topology, seed, order, max_hops, expected
