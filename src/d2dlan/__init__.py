"""Energy-aware device-to-device LAN formation over a cellular downlink.

Simulator and library covering channel rates, role-based energy accounting,
proposal-driven tree formation, LP seed scheduling with individual-rationality
incentives, and grim-trigger cooperation enforcement.
"""

from .channel import (RadioConfig, RateTable, Topology, lr_rate, pathloss_gain,
                      rate_table, reception_rate, sr_rate)
from .energy import (EnergyReport, PowerConstants, energy_report,
                     multicast_energy, role_power)
from .formation import (FormationGraph, PreferenceMatrix, ProposalOrder,
                        build_preferences, estimate_graph, rotate_order)
from .lp import LpProblem, LpSolution, solve
from .mechanism import (COOPERATE, DEFECT, CevBreakdown, GameState, Schedule,
                        cev_components, critical_expectation,
                        deviation_energy, grim_trigger_step, solve_schedule)
from .scenarios import (MonteCarloResult, ReplicationError, RunRecord,
                        ScenarioResult, SessionConfig, generate_topology,
                        monte_carlo, run_mcrcd, run_multicast, run_optimal,
                        summarize_values)

__all__ = [
    "RadioConfig", "RateTable", "Topology", "pathloss_gain", "lr_rate",
    "sr_rate", "rate_table", "reception_rate",
    "PowerConstants", "EnergyReport", "multicast_energy", "role_power",
    "energy_report",
    "FormationGraph", "ProposalOrder", "PreferenceMatrix",
    "build_preferences", "estimate_graph", "rotate_order",
    "LpProblem", "LpSolution", "solve",
    "Schedule", "GameState", "CevBreakdown", "COOPERATE", "DEFECT",
    "deviation_energy", "solve_schedule", "cev_components",
    "critical_expectation", "grim_trigger_step",
    "SessionConfig", "ScenarioResult", "RunRecord", "MonteCarloResult",
    "ReplicationError", "generate_topology", "run_multicast", "run_optimal",
    "run_mcrcd", "monte_carlo", "summarize_values",
]
