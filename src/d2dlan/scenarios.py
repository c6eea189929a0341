"""Session orchestration: the three content-delivery scenarios and their
Monte Carlo comparison.

* multicast: everyone downloads on its own cellular link at the population's
  worst rate.
* optimal: a central planner picks one seed for the whole slot and the
  minimum-energy feasible tree over any subset of MUs (the rest download
  alone), by an exact search over (tree size, relay count) energy classes up
  to a size limit and by the formation heuristic beyond it; multicast when
  no tree saves energy.
* mcrcd: every MU seeds its own tree for an individually-rational fraction
  of the slot, with grim-trigger enforcement of relaying.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .channel import (RadioConfig, RateTable, Topology, pathloss_gain,
                      rate_table, reception_rate)
from .energy import PowerConstants, energy_report, multicast_energy, role_power
from .formation import (FormationGraph, ProposalOrder, build_preferences,
                        estimate_graph, rotate_order)
from .mechanism import (COOPERATE, GameState, critical_expectation,
                        grim_trigger_step, solve_schedule)

CI95_Z = 1.959963984540054
EXHAUSTIVE_LIMIT = 8   # largest K the optimal planner solves exactly


@dataclass(frozen=True)
class SessionConfig:
    """Configuration of one simulated content session."""

    mu_count: int
    slot_count: int = 10
    area_side: float = 400.0
    master_seed: int = 1
    runs: int = 100
    beliefs: float | tuple[float, ...] = 1.0
    max_hops: int = 4
    radio: RadioConfig = field(default_factory=RadioConfig)
    power: PowerConstants = field(default_factory=PowerConstants)

    def __post_init__(self) -> None:
        if self.mu_count < 2:
            raise ValueError("mu_count must be at least 2")
        if self.slot_count < 1:
            raise ValueError("slot_count must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not (math.isfinite(self.area_side) and self.area_side > 0):
            raise ValueError("area_side must be positive and finite")
        if self.max_hops < 1:
            raise ValueError("max_hops must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if not isinstance(self.beliefs, (int, float)):
            beliefs = tuple(float(b) for b in self.beliefs)
            if len(beliefs) != self.mu_count:
                raise ValueError("per-MU beliefs must have length mu_count")
            object.__setattr__(self, "beliefs", beliefs)
        if any(not 0.0 <= b <= 1.0 for b in self.resolved_beliefs()):
            raise ValueError("beliefs must lie in [0, 1]")

    def resolved_beliefs(self) -> tuple[float, ...]:
        if isinstance(self.beliefs, (int, float)):
            return (float(self.beliefs),) * self.mu_count
        return self.beliefs


@dataclass(frozen=True)
class ScenarioResult:
    """Per-MU session metrics for one scenario on one topology."""

    scenario_tag: str
    per_mu_throughput: tuple[float, ...]   # bits/s, session average
    per_mu_energy: tuple[float, ...]       # J per slot, session average
    per_mu_efficiency: tuple[float, ...]   # bits/J
    feasible_fraction: float
    mean_cev: Optional[float] = None
    per_mu_cev: Optional[tuple[float, ...]] = None
    optimal_mode: Optional[str] = None     # exact | heuristic, optimal only


def generate_topology(config: SessionConfig, run_index: int) -> Topology:
    """Uniform deployment over the square with the base station centered;
    deterministic in (master_seed, run_index).

    Positions are drawn first and row by row, so populations are nested:
    the first K MUs of a run coincide across configs differing only in
    mu_count.
    """
    rng = np.random.default_rng([config.master_seed, run_index])
    k = config.mu_count
    pos = rng.uniform(0.0, config.area_side, size=(k, 2))
    bs = np.full(2, config.area_side / 2.0)
    radio = config.radio
    d_bs = np.linalg.norm(pos - bs, axis=1)
    gain_lr = pathloss_gain(d_bs, radio.pathloss_ref_db, radio.pathloss_exp_lr)
    d_mu = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    gain_sr = pathloss_gain(d_mu, radio.pathloss_ref_db, radio.pathloss_exp_sr)
    np.fill_diagonal(gain_sr, 0.0)
    gain_sr = np.triu(gain_sr, 1) + np.triu(gain_sr, 1).T  # exact symmetry
    return Topology(bs_position=bs, mu_positions=pos, gain_lr=gain_lr,
                    gain_sr=gain_sr, radio=radio)


def run_multicast(topology: Topology, config: SessionConfig) -> ScenarioResult:
    rates = rate_table(topology)
    k = topology.mu_count
    t = config.power.slot_duration
    energy = multicast_energy(config.power)
    rate = rates.multicast_rate
    eff = rate * t / energy
    return ScenarioResult(
        scenario_tag="multicast",
        per_mu_throughput=(rate,) * k,
        per_mu_energy=(energy,) * k,
        per_mu_efficiency=(eff,) * k,
        feasible_fraction=1.0,
    )


# --- optimal scenario -------------------------------------------------------

@lru_cache(maxsize=None)
def _class_table(size: int, relays: tuple[int, ...]):
    """Labeled trees on ``size`` nodes rooted at node 0 with a relay count in
    ``relays``, in Prüfer-sequence order.

    A tree's relays (non-root internal nodes) are exactly the distinct
    nonzero symbols of its Prüfer sequence, so the sequences are those over
    {0} ∪ R that use every element of R, for each relay set R. Returns
    (parents, max_depth): parents[n, x] is the parent of node x in tree n
    (node 0 maps to itself), max_depth[n] the tree height.
    """
    seqs = sorted(seq for r in relays
                  for chosen in itertools.combinations(range(1, size), r)
                  for seq in itertools.product((0,) + chosen, repeat=size - 2)
                  if len(set(seq) - {0}) == r)
    parents = np.zeros((len(seqs), size), dtype=np.int16)
    max_depth = np.zeros(len(seqs), dtype=np.int16)
    for n, seq in enumerate(seqs):
        adj: list[list[int]] = [[] for _ in range(size)]
        for a, b in _prufer_decode(seq, size):
            adj[a].append(b)
            adj[b].append(a)
        parent = [0] * size
        depth = [0] * size
        stack = [0]
        seen = [False] * size
        seen[0] = True
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    parent[nxt] = node
                    depth[nxt] = depth[node] + 1
                    stack.append(nxt)
        parents[n] = parent
        max_depth[n] = max(depth)
    return parents, max_depth


def _prufer_decode(seq: tuple[int, ...], k: int) -> list[tuple[int, int]]:
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, k - 1))
    return edges


def _tree_energy(relays: int, k: int, constants: PowerConstants) -> float:
    t = constants.slot_duration
    seed_power = constants.p_rx_lr + constants.p_tx_sr
    relay_power = constants.p_rx_sr + constants.p_tx_sr
    return t * (seed_power + relays * relay_power
                + (k - 1 - relays) * constants.p_rx_sr)


def _star_graph(seed: int, k: int) -> FormationGraph:
    return FormationGraph(seed, tuple(None if x == seed else seed
                                      for x in range(k)))


def _best_exact_graph(topology: Topology, rates: RateTable,
                      config: SessionConfig) -> Optional[FormationGraph]:
    """Minimum-energy feasible rooted tree over any subset of MUs, or None
    when no tree beats everyone downloading alone.

    MUs outside the tree download on their own cellular link. Feasibility:
    depth bounded, every seed-to-child link carries the seed's cellular rate,
    every relay-to-child link carries at least the relay's own incoming link.
    A tree's energy depends only on its (size, relay count) class, so the
    classes are searched cheapest first and the first feasible tree wins.
    Ties in energy prefer the seed with the highest cellular rate, then the
    lowest seed index, the smallest tree, the first member subset in
    combination order and the first tree in Prüfer order.
    """
    k = topology.mu_count
    constants = config.power
    alone = constants.p_rx_lr * constants.slot_duration
    bound = alone * k - 1e-12
    # float-equal classes tie and are searched as one group
    groups: dict[float, dict[int, tuple[int, ...]]] = {}
    for size in range(2, k + 1):
        for relays in range(size - 1):
            energy = _tree_energy(relays, size, constants) + alone * (k - size)
            by_size = groups.setdefault(energy, {})
            by_size[size] = by_size.get(size, ()) + (relays,)
    energies = sorted(groups)
    seeds = sorted(range(k), key=lambda m: (-float(rates.lr_rate[m]), m))

    if groups[energies[0]] == {k: (0,)} and energies[0] < bound:
        # fast path: the full star is the cheapest tree of all
        for seed in seeds:
            if all(rates.sr_rate[seed, x] >= rates.lr_rate[seed]
                   for x in range(k) if x != seed):
                return _star_graph(seed, k)

    for energy in energies:
        if energy >= bound:
            return None
        for seed in seeds:
            r_seed = float(rates.lr_rate[seed])
            others = tuple(x for x in range(k) if x != seed)
            for size, relays in sorted(groups[energy].items()):
                parents, max_depth = _class_table(size, relays)
                depth_ok = max_depth <= config.max_hops
                for chosen in itertools.combinations(others, size - 1):
                    members = np.array((seed,) + chosen)
                    sub = rates.sr_rate[np.ix_(members, members)]
                    edge_rate = sub[parents, np.arange(size)[None, :]]
                    thr = np.where(parents == 0, r_seed,
                                   np.take_along_axis(edge_rate,
                                                      parents.astype(np.intp),
                                                      axis=1))
                    ok = edge_rate >= thr
                    ok[:, 0] = True
                    idx = np.flatnonzero(ok.all(axis=1) & depth_ok)
                    if idx.size == 0:
                        continue
                    canon = parents[idx[0]]
                    parent_list: list[Optional[int]] = [None] * k
                    for x in range(1, size):
                        parent_list[int(members[x])] = int(members[canon[x]])
                    return FormationGraph(seed, tuple(parent_list))
    return None


def _graph_total_energy(graph: FormationGraph, constants: PowerConstants) -> float:
    return sum(role_power(mu, graph, constants) for mu in range(graph.mu_count)) \
        * constants.slot_duration


def _best_heuristic_graph(topology: Topology, rates: RateTable,
                          config: SessionConfig) -> FormationGraph:
    prefs = build_preferences(topology, rates)
    k = topology.mu_count
    best_key = None
    best_graph = None
    for seed in range(k):
        order = ProposalOrder(tuple(x for x in range(k) if x != seed))
        graph = estimate_graph(topology, rates, seed, order, prefs,
                               config.max_hops)
        key = (_graph_total_energy(graph, config.power),
               -float(rates.lr_rate[seed]), seed)
        if best_key is None or key < best_key:
            best_key = key
            best_graph = graph
    assert best_graph is not None
    return best_graph


def run_optimal(topology: Topology, config: SessionConfig,
                mode: str = "auto") -> ScenarioResult:
    """Planner benchmark: single seed for the whole slot, minimum total
    energy. Reports the multicast fallback when no feasible tree saves
    energy over everyone downloading alone."""
    if mode not in ("auto", "exact", "heuristic"):
        raise ValueError(f"unknown mode: {mode}")
    rates = rate_table(topology)
    k = topology.mu_count
    if mode == "auto":
        mode = "exact" if k <= EXHAUSTIVE_LIMIT else "heuristic"
    if mode == "exact":
        graph = _best_exact_graph(topology, rates, config)
    else:
        graph = _best_heuristic_graph(topology, rates, config)
    if graph is None:
        base = run_multicast(topology, config)
        return replace(base, scenario_tag="optimal", feasible_fraction=0.0,
                       optimal_mode=mode)
    constants = config.power
    t = constants.slot_duration
    throughput = tuple(
        reception_rate(mu, graph, rates) if graph.connected[mu]
        else float(rates.lr_rate[mu])
        for mu in range(k))
    energy = tuple(role_power(mu, graph, constants) * t for mu in range(k))
    eff = tuple(th * t / e for th, e in zip(throughput, energy))
    return ScenarioResult(
        scenario_tag="optimal",
        per_mu_throughput=throughput,
        per_mu_energy=energy,
        per_mu_efficiency=eff,
        feasible_fraction=1.0,
        optimal_mode=mode,
    )


# --- proposed protocol ------------------------------------------------------

def run_mcrcd(topology: Topology, config: SessionConfig) -> ScenarioResult:
    """Run the scheduled-seed protocol for one session.

    Each slot: form one tree per seed (the proposal order rotates every
    slot), solve the seed-time split, and play one round of the trigger
    game. Slots with an infeasible split, and slots at or after a defection,
    account as plain multicast.
    """
    rates = rate_table(topology)
    k = topology.mu_count
    constants = config.power
    t = constants.slot_duration
    prefs = build_preferences(topology, rates)
    state = GameState(beliefs=config.resolved_beliefs(), cev=(0.0,) * k)

    thr_acc = np.zeros(k)
    energy_acc = np.zeros(k)
    cev_acc = np.zeros(k)
    feasible_slots = 0
    base_rate = rates.multicast_rate
    base_energy = multicast_energy(constants)
    master = ProposalOrder(tuple(range(k)))

    for _ in range(config.slot_count):
        graphs = [
            estimate_graph(topology, rates, m,
                           ProposalOrder(tuple(x for x in master.order
                                               if x != m)),
                           prefs, config.max_hops)
            for m in range(k)
        ]
        sched = solve_schedule(graphs, constants)
        delivered = False
        if sched.feasible:
            feasible_slots += 1
            report = energy_report(graphs, sched.rho, constants)
            cev = tuple(critical_expectation(m, report, sched, constants)
                        for m in range(k))
            cev_acc += np.array(cev)
            state = replace(state, cev=cev)
            actions, state = grim_trigger_step(state)
            delivered = all(a == COOPERATE for a in actions)
        if delivered:
            for mu in range(k):
                thr_acc[mu] += sum(
                    sched.rho[m] * (reception_rate(mu, graphs[m], rates)
                                    if graphs[m].connected[mu]
                                    else float(rates.lr_rate[mu]))
                    for m in range(k))
            energy_acc += report.per_mu_d2d
        else:
            # no feasible split, or a defection, which collapses the LAN for
            # this and later slots
            thr_acc += base_rate
            energy_acc += base_energy
        master = rotate_order(master)

    slots = config.slot_count
    throughput = thr_acc / slots
    energy = energy_acc / slots
    eff = tuple(th * t / e for th, e in zip(throughput, energy))
    per_mu_cev = tuple(cev_acc / feasible_slots) if feasible_slots else None
    return ScenarioResult(
        scenario_tag="mcrcd",
        per_mu_throughput=tuple(throughput),
        per_mu_energy=tuple(energy),
        per_mu_efficiency=eff,
        feasible_fraction=feasible_slots / slots,
        mean_cev=float(np.mean(per_mu_cev)) if per_mu_cev is not None else None,
        per_mu_cev=per_mu_cev,
    )


# --- Monte Carlo ------------------------------------------------------------

SCENARIO_RUNNERS = {
    "multicast": run_multicast,
    "optimal": run_optimal,
    "mcrcd": run_mcrcd,
}

RUN_METRICS = ("throughput_bps", "energy_j", "efficiency_bpj", "cev", "feasible")


@dataclass(frozen=True)
class RunRecord:
    run_index: int
    results: dict[str, ScenarioResult]


@dataclass(frozen=True)
class MonteCarloResult:
    config: SessionConfig
    scenarios: tuple[str, ...]
    records: tuple[RunRecord, ...]

    def run_scalars(self, scenario: str, metric: str) -> list[float]:
        """Per-run scalar series for one (scenario, metric); cev skips runs
        without a feasible slot."""
        out = []
        for rec in self.records:
            res = rec.results[scenario]
            value = _scalar_metric(res, metric)
            if value is not None:
                out.append(value)
        return out

    def summary(self) -> dict[tuple[str, str], tuple[float, float]]:
        """(scenario, metric) -> (mean, 95% CI half-width) over runs; a
        metric that no run reports (cev outside mcrcd) is left out."""
        table = {}
        for scenario in self.scenarios:
            for metric in RUN_METRICS:
                values = self.run_scalars(scenario, metric)
                if values:
                    table[(scenario, metric)] = summarize_values(values)
        return table


def _scalar_metric(res: ScenarioResult, metric: str) -> Optional[float]:
    if metric == "throughput_bps":
        return float(np.mean(res.per_mu_throughput))
    if metric == "energy_j":
        return float(np.mean(res.per_mu_energy))
    if metric == "efficiency_bpj":
        return float(np.mean(res.per_mu_efficiency))
    if metric == "feasible":
        return res.feasible_fraction
    if metric == "cev":
        return res.mean_cev
    raise ValueError(f"unknown metric: {metric}")


def summarize_values(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    half = CI95_Z * float(arr.std(ddof=1)) / float(np.sqrt(arr.size))
    return mean, half


class ReplicationError(RuntimeError):
    """One Monte Carlo replication failed; the message names the replication
    and carries the original error."""


def _simulate_run(args) -> RunRecord:
    config, scenarios, run_index = args
    try:
        topology = generate_topology(config, run_index)
        results = {name: SCENARIO_RUNNERS[name](topology, config)
                   for name in scenarios}
    except Exception as exc:
        raise ReplicationError(
            f"replication failed at K={config.mu_count} "
            f"master_seed={config.master_seed} run_index={run_index}: "
            f"{type(exc).__name__}: {exc}") from exc
    return RunRecord(run_index=run_index, results=results)


def _worker_count(runs: int) -> int:
    raw = os.environ.get("MCRCD_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        raise ValueError(f"MCRCD_THREADS must be an integer, got {raw!r}")
    if requested < 0:
        raise ValueError("MCRCD_THREADS must be nonnegative")
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, runs))


def monte_carlo(config: SessionConfig,
                scenarios: Sequence[str] = ("multicast", "optimal", "mcrcd"),
                ) -> MonteCarloResult:
    """Paired replications: every scenario sees the same topology stream.
    Results are reduced in run-index order regardless of completion order."""
    if config.runs < 2:
        raise ValueError("monte_carlo needs at least 2 runs")
    for name in scenarios:
        if name not in SCENARIO_RUNNERS:
            raise ValueError(f"unknown scenario: {name}")
    scenarios = tuple(scenarios)
    jobs = [(config, scenarios, i) for i in range(config.runs)]
    workers = _worker_count(config.runs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = tuple(pool.map(_simulate_run, jobs))
    else:
        records = tuple(_simulate_run(job) for job in jobs)
    return MonteCarloResult(config=config, scenarios=scenarios,
                            records=records)
