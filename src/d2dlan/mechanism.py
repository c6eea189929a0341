"""Incentive mechanism: seed-time scheduling, cooperation thresholds, and the
grim-trigger repeated game.

The scheduler splits each slot into per-MU seed times that minimize the
population's total energy, subject to individual rationality: no MU may spend
more inside the LAN than it would by downloading everything itself.
Cooperation in the repeated game is governed by a per-MU threshold belief
(the minimum probability of the session continuing that makes relaying
worthwhile under permanent-punishment retaliation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import lp
from .energy import (EnergyReport, PowerConstants, multicast_energy,
                     schedule_watt_matrix)
from .formation import FormationGraph

COOPERATE = "C"
DEFECT = "D"

OBJECTIVE_SLACK = 1e-9
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class Schedule:
    """Seed-time fractions for one slot; infeasible means no split satisfies
    individual rationality."""

    rho: Optional[tuple[float, ...]]
    feasible: bool
    objective: Optional[float] = None

    def __post_init__(self) -> None:
        if self.feasible:
            if self.rho is None:
                raise ValueError("feasible schedule needs seed times")
            if any(r < 0.0 for r in self.rho):
                raise ValueError("seed times must be nonnegative")
            if abs(sum(self.rho) - 1.0) > 1e-9:
                raise ValueError("seed times must sum to 1")


@dataclass(frozen=True)
class GameState:
    beliefs: tuple[float, ...]          # per-MU continuation probability
    cev: tuple[float, ...]              # per-MU cooperation thresholds
    history: tuple[tuple[str, ...], ...] = ()
    triggered: bool = False

    def __post_init__(self) -> None:
        for p in self.beliefs + self.cev:
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


def deviation_energy(mu: int, schedule: Schedule,
                     constants: PowerConstants) -> float:
    """Slot energy of an MU that only receives: cellular reception during its
    own seed time, SR reception for the remainder."""
    if schedule.rho is None:
        raise ValueError("schedule has no seed times")
    rho_k = schedule.rho[mu]
    t = constants.slot_duration
    return (constants.p_rx_lr - constants.p_rx_sr) * rho_k * t \
        + constants.p_rx_sr * t


def solve_schedule(graphs: Sequence[FormationGraph],
                   constants: PowerConstants) -> Schedule:
    """Pick seed-time fractions minimizing total energy subject to the
    individual-rationality rows, with a max-min tie-break.

    The minimizing objective is often constant across the whole feasible
    simplex (all-star instances), so a second solve maximizes the smallest
    seed time at the optimal objective value, yielding a canonical, fair
    split.
    """
    k = len(graphs)
    t = constants.slot_duration
    watt = schedule_watt_matrix(graphs, constants)
    cost = watt.sum(axis=0) * t
    baseline = multicast_energy(constants)

    ones = np.ones((1, k))
    first = lp.solve(lp.LpProblem(
        objective=cost,
        a_eq=ones, b_eq=np.array([1.0]),
        a_ub=watt * t, b_ub=np.full(k, baseline),
    ))
    if first.status == "infeasible":
        return Schedule(rho=None, feasible=False)
    if first.status != "optimal":
        raise RuntimeError(f"schedule solve failed: {first.status} {first.message}")

    # tie-break stage: maximize min_k rho_k while pinning the objective
    n = k + 1  # rho plus the min-value variable
    c2 = np.zeros(n)
    c2[k] = -1.0
    a_eq = np.zeros((1, n))
    a_eq[0, :k] = 1.0
    rows_irc = np.hstack([watt * t, np.zeros((k, 1))])
    rows_min = np.hstack([-np.eye(k), np.ones((k, 1))])  # t <= rho_k
    row_obj = np.concatenate([cost, [0.0]])[None, :]
    a_ub = np.vstack([rows_irc, rows_min, row_obj])
    b_ub = np.concatenate([
        np.full(k, baseline),
        np.zeros(k),
        [first.objective_value + OBJECTIVE_SLACK],
    ])
    second = lp.solve(lp.LpProblem(objective=c2, a_eq=a_eq,
                                   b_eq=np.array([1.0]),
                                   a_ub=a_ub, b_ub=b_ub))
    if second.status != "optimal":
        raise RuntimeError(f"schedule tie-break failed: {second.status}")
    # simplex output carries O(1e-12) noise; clip to the box
    rho = tuple(float(min(max(v, 0.0), 1.0)) for v in second.x[:k])
    return Schedule(rho=rho, feasible=True, objective=float(cost @ second.x[:k]))


@dataclass(frozen=True)
class CevBreakdown:
    value: float
    cooperate_energy: float    # per-slot energy under all-cooperate
    baseline_energy: float     # per-slot energy after the LAN collapses
    deviation_energy: float    # one slot of pure free-riding
    degenerate: bool           # baseline does not exceed free-riding


def cev_components(mu: int, report: EnergyReport, schedule: Schedule,
                   constants: PowerConstants) -> CevBreakdown:
    """Cooperation threshold with its ingredients.

    Derived from indifference between (free-ride once, then download alone
    forever) and (cooperate forever) under geometric session continuation:
    ``p* = (E_coop - E_dev) / (E_base - E_dev)``.
    """
    if not schedule.feasible or schedule.rho is None:
        raise ValueError("threshold needs a feasible schedule")
    e_coop = float(report.per_mu_d2d[mu])
    e_base = float(report.per_mu_multicast[mu])
    e_dev = deviation_energy(mu, schedule, constants)
    denom = e_base - e_dev
    if denom <= DEGENERATE_TOL:
        return CevBreakdown(1.0, e_coop, e_base, e_dev, degenerate=True)
    value = (e_coop - e_dev) / denom
    return CevBreakdown(min(max(value, 0.0), 1.0), e_coop, e_base, e_dev,
                        degenerate=False)


def critical_expectation(mu: int, report: EnergyReport, schedule: Schedule,
                         constants: PowerConstants) -> float:
    """Minimum continuation belief at which cooperating is a best response."""
    return cev_components(mu, report, schedule, constants).value


def grim_trigger_step(state: GameState) -> tuple[tuple[str, ...], GameState]:
    """Play one slot: each MU cooperates iff its belief reaches its
    threshold; any defection switches the game permanently to all-defect."""
    k = len(state.beliefs)
    if state.triggered:
        actions = (DEFECT,) * k
    else:
        actions = tuple(COOPERATE if state.beliefs[m] >= state.cev[m] else DEFECT
                        for m in range(k))
    new_state = replace(state,
                        history=state.history + (actions,),
                        triggered=state.triggered or DEFECT in actions)
    return actions, new_state
