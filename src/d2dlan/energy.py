"""Role-based per-slot energy accounting.

Power draw is constant per link type (rate-adaptive hardware keeps it nearly
flat), so each MU's energy in a slot is its role's Watt rate times the time
it holds that role. Baseline: downloading directly on the cellular link for
the whole slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formation import FormationGraph

RHO_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PowerConstants:
    p_rx_lr: float = 1.8       # W, cellular reception
    p_rx_sr: float = 0.925     # W, device-to-device reception
    p_tx_sr: float = 1.425     # W, device-to-device transmission
    slot_duration: float = 1.0  # s

    def __post_init__(self) -> None:
        if min(self.p_rx_lr, self.p_rx_sr, self.p_tx_sr) <= 0:
            raise ValueError("power draws must be positive")
        if not self.slot_duration > 0:
            raise ValueError("slot_duration must be positive")


@dataclass(frozen=True)
class EnergyReport:
    """Per-MU energy under the baseline and the scheduled-tree scenario,
    with the per-tree decomposition (row k, column m: energy MU k spends
    while MU m's tree is active)."""

    per_mu_multicast: np.ndarray        # (K,) J
    per_mu_d2d: np.ndarray              # (K,) J
    per_graph_contribution: np.ndarray  # (K, K) J

    def __post_init__(self) -> None:
        base = np.asarray(self.per_mu_multicast, dtype=float)
        d2d = np.asarray(self.per_mu_d2d, dtype=float)
        contrib = np.asarray(self.per_graph_contribution, dtype=float)
        k = base.shape[0]
        if d2d.shape != (k,) or contrib.shape != (k, k):
            raise ValueError("inconsistent report shapes")
        if np.any(base < 0) or np.any(d2d < 0) or np.any(contrib < 0):
            raise ValueError("energies must be nonnegative")
        if not np.allclose(contrib.sum(axis=1), d2d, rtol=0, atol=1e-9):
            raise ValueError("per_mu_d2d must equal row sums of the decomposition")
        for name, arr in (("per_mu_multicast", base), ("per_mu_d2d", d2d),
                          ("per_graph_contribution", contrib)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def multicast_energy(constants: PowerConstants) -> float:
    """Energy of one full slot of cellular reception."""
    return constants.p_rx_lr * constants.slot_duration


def role_power(mu: int, graph: FormationGraph, constants: PowerConstants) -> float:
    """Watt rate of ``mu``'s role while ``graph`` is active.

    Seed with children: cellular reception plus SR transmission. Childless
    seed: cellular reception only (nobody to forward to). Relay: SR reception
    plus SR transmission. Sink: SR reception. An MU left out of the tree
    falls back to its own cellular download.
    """
    if mu == graph.seed:
        if graph.children[mu]:
            return constants.p_rx_lr + constants.p_tx_sr
        return constants.p_rx_lr
    if not graph.connected[mu]:
        return constants.p_rx_lr
    if graph.children[mu]:
        return constants.p_rx_sr + constants.p_tx_sr
    return constants.p_rx_sr


def schedule_watt_matrix(graphs: Sequence[FormationGraph],
                         constants: PowerConstants) -> np.ndarray:
    """watt[k, m]: power MU k draws while MU m's tree is active."""
    k = len(graphs)
    return np.array([[role_power(mu, graphs[m], constants) for m in range(k)]
                     for mu in range(k)])


def energy_report(graphs: Sequence[FormationGraph], rho: Sequence[float],
                  constants: PowerConstants) -> EnergyReport:
    """Energy of each MU when each MU m seeds its own tree for the fraction
    ``rho[m]`` of the slot: role power times the time spent in the role."""
    k = len(graphs)
    if len(rho) != k:
        raise ValueError("graphs and rho must have equal length")
    if any(not 0.0 <= r <= 1.0 for r in rho):
        raise ValueError("seed-time fractions must lie in [0, 1]")
    if abs(sum(rho) - 1.0) > RHO_SUM_TOL:
        raise ValueError("seed-time fractions must sum to 1")
    watt = schedule_watt_matrix(graphs, constants)
    contrib = watt * np.asarray(rho, dtype=float) * constants.slot_duration
    base = np.full(k, multicast_energy(constants))
    return EnergyReport(per_mu_multicast=base,
                        per_mu_d2d=contrib.sum(axis=1),
                        per_graph_contribution=contrib)
