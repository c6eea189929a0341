"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with -s to see them)."""

import time

import numpy as np
import pytest

from conftest import star
from oracles import (cev_bisection, random_lp, simplex_grid,
                     solve_lp_by_enumeration, verify_formation)

from d2dlan import (LpProblem, ProposalOrder, SessionConfig, build_preferences,
                    critical_expectation, energy_report, estimate_graph,
                    generate_topology, monte_carlo, multicast_energy,
                    rate_table, run_optimal, solve, solve_schedule,
                    deviation_energy, GameState, grim_trigger_step,
                    COOPERATE, DEFECT, run_mcrcd, run_multicast)

RNG_SEED = 20240801


def _passline(num, text, elapsed, budget):
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"
    print(f"[PASS] criterion {num}: {text} ({elapsed:.1f}s < {budget:.0f}s)")


def _slot_instance(cfg, run_index):
    """One slot of the protocol pipeline: graphs, schedule, energy report."""
    topo = generate_topology(cfg, run_index)
    rates = rate_table(topo)
    prefs = build_preferences(topo, rates)
    k = cfg.mu_count
    graphs = [estimate_graph(topo, rates, m,
                             ProposalOrder(tuple(x for x in range(k) if x != m)),
                             prefs, cfg.max_hops)
              for m in range(k)]
    sched = solve_schedule(graphs, cfg.power)
    if not sched.feasible:
        return None
    report = energy_report(graphs, sched.rho, cfg.power)
    return topo, rates, graphs, sched, report


@pytest.fixture(scope="module")
def paired_sweep():
    """Shared 100-run paired Monte Carlo for K = 3..8 (criteria 4 and 5);
    returns (per-K results, build seconds) so both criteria can account for
    the construction time against their budgets."""
    t0 = time.perf_counter()
    out = {}
    for k in range(3, 9):
        out[k] = monte_carlo(SessionConfig(mu_count=k, runs=100))
    return out, time.perf_counter() - t0


def test_criterion_1_cev_oracle_equivalence(power):
    t0 = time.perf_counter()
    checked = 0
    run_index = 0
    k_cycle = (3, 4, 5, 6)
    worst = 0.0
    while checked < 200:
        k = k_cycle[run_index % 4]
        cfg = SessionConfig(mu_count=k, runs=1, master_seed=RNG_SEED)
        inst = _slot_instance(cfg, run_index)
        run_index += 1
        assert run_index < 2000, "feasible instances too rare"
        if inst is None:
            continue
        _, _, _, sched, report = inst
        mu = checked % k
        got = critical_expectation(mu, report, sched, power)
        oracle = cev_bisection(float(report.per_mu_d2d[mu]),
                               float(report.per_mu_multicast[mu]),
                               deviation_energy(mu, sched, power))
        assert abs(got - oracle) <= 1e-9, (k, run_index, got, oracle)
        worst = max(worst, abs(got - oracle))
        checked += 1
    # hand case: symmetric three-MU star world
    graphs = [star(m, 3) for m in range(3)]
    sched = solve_schedule(graphs, power)
    report = energy_report(graphs, sched.rho, power)
    hand = critical_expectation(0, report, sched, power)
    assert hand == pytest.approx(0.81429, abs=1e-5)
    assert abs(hand - cev_bisection(float(report.per_mu_d2d[0]), 1.8,
                                    deviation_energy(0, sched, power))) <= 1e-9
    _passline(1, f"200 instances, max |dp|={worst:.2e}, hand case 0.81429",
              time.perf_counter() - t0, 5.0)


def test_criterion_2_scheduling_lp_correctness(power):
    t0 = time.perf_counter()
    grids = {k: simplex_grid(k, 0.01) for k in (2, 3, 4)}
    baseline = multicast_energy(power)
    checked = 0
    for k in (2, 3, 4):
        cfg = SessionConfig(mu_count=k, runs=1, master_seed=RNG_SEED + 1)
        for run_index in range(8):
            topo = generate_topology(cfg, run_index)
            rates = rate_table(topo)
            prefs = build_preferences(topo, rates)
            graphs = [estimate_graph(
                topo, rates, m,
                ProposalOrder(tuple(x for x in range(k) if x != m)),
                prefs, cfg.max_hops) for m in range(k)]
            from d2dlan.energy import schedule_watt_matrix
            watt_t = schedule_watt_matrix(graphs, power) * power.slot_duration
            sched = solve_schedule(graphs, power)
            grid = grids[k]
            feasible = np.all(grid @ watt_t.T <= baseline + 1e-9, axis=1)
            if sched.feasible:
                report = energy_report(graphs, sched.rho, power)
                assert np.all(report.per_mu_d2d <= baseline + 1e-9)
                grid_best = (grid @ watt_t.sum(axis=0)).min(
                    where=feasible, initial=np.inf)
                assert sched.objective <= grid_best + 1e-9
            else:
                assert not feasible.any()
            checked += 1
    # analytic pair infeasibility: mutually reachable MUs still cannot split
    # a slot, since each seed-time is capped at (1.8-0.925)/2.3 ~ 0.38043
    pair = [star(0, 2), star(1, 2)]
    assert not solve_schedule(pair, power).feasible
    assert 2 * (1.8 - 0.925) / 2.3 == pytest.approx(2 * 0.38043, abs=1e-4)
    # all-star tie-break returns the uniform split
    sched3 = solve_schedule([star(m, 3) for m in range(3)], power)
    assert sched3.rho == pytest.approx((1 / 3,) * 3, abs=1e-9)
    _passline(2, f"{checked} grid comparisons, pair bound, uniform tie-break",
              time.perf_counter() - t0, 30.0)


def test_criterion_3_formation_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 2)
    for i in range(1000):
        k = 2 + i % 11  # K = 2..12
        cfg = SessionConfig(mu_count=k, runs=1, master_seed=RNG_SEED + 2)
        topo = generate_topology(cfg, i)
        rates = rate_table(topo)
        prefs = build_preferences(topo, rates)
        seed = int(rng.integers(k))
        order = ProposalOrder(tuple(int(x) for x in rng.permutation(
            [x for x in range(k) if x != seed])))
        graph = estimate_graph(topo, rates, seed, order, prefs, 4)
        assert max(graph.depth) <= 4
        verify_formation(rates, graph, order, prefs, 4)
        assert estimate_graph(topo, rates, seed, order, prefs, 4) == graph
    # golden fixture
    from conftest import FIXTURES, load_fixture
    topo, seed, order, max_hops, expected = load_fixture(
        (FIXTURES / "golden_formation_k4.txt").read_text())
    rates = rate_table(topo)
    graph = estimate_graph(topo, rates, seed, order,
                           build_preferences(topo, rates), max_hops)
    assert graph.parent == expected
    _passline(3, "1000 topologies: tree/depth/replay/determinism + golden fixture",
              time.perf_counter() - t0, 10.0)


def test_criterion_4_efficiency_dominance(paired_sweep):
    sweep, build_time = paired_sweep
    t0 = time.perf_counter()
    gains = {}
    feasible_runs = 0
    for k, mc in sweep.items():
        eff_m = []
        eff_p = []
        for rec in mc.records:
            base = rec.results["multicast"]
            opt = rec.results["optimal"]
            prot = rec.results["mcrcd"]
            eff_m.append(float(np.mean(base.per_mu_efficiency)))
            eff_p.append(float(np.mean(prot.per_mu_efficiency)))
            if prot.feasible_fraction > 0.0:
                feasible_runs += 1
                for mu in range(k):
                    assert prot.per_mu_efficiency[mu] >= \
                        base.per_mu_efficiency[mu] * (1 - 1e-12)
                tot_o = sum(opt.per_mu_energy)
                tot_p = sum(prot.per_mu_energy)
                tot_m = sum(base.per_mu_energy)
                assert tot_o <= tot_p + 1e-9
                assert tot_p <= tot_m + 1e-9
        gains[k] = np.mean(eff_p) / np.mean(eff_m) - 1
    best_k = max(gains, key=gains.get)
    assert gains[best_k] >= 0.20, gains
    _passline(4, "dominance on {} feasible runs; max gain {:+.1f}% at K={}".format(
        feasible_runs, 100 * gains[best_k], best_k),
        build_time + time.perf_counter() - t0, 120.0)


def test_criterion_5_population_trends(paired_sweep):
    sweep, build_time = paired_sweep
    t0 = time.perf_counter()
    ks = list(range(3, 9))
    # (a) multicast mean throughput non-increasing over nested populations
    thr = {k: np.mean(sweep[k].run_scalars("multicast", "throughput_bps"))
           for k in ks}
    for a, b in zip(ks, ks[1:]):
        assert thr[b] <= thr[a] + 1e-9, (a, b, thr)
    # (c) mean cooperation threshold non-increasing over K = 3..8
    cev = {k: np.mean(sweep[k].run_scalars("mcrcd", "cev")) for k in ks}
    for a, b in zip(ks, ks[1:]):
        assert cev[b] <= cev[a] + 1e-9, (a, b, cev)
    # (b) feasibility boundary: the feasible fraction decays toward zero
    feas = {k: np.mean(sweep[k].run_scalars("mcrcd", "feasible"))
            for k in ks}
    for k in (10, 12, 14, 16):
        mc = monte_carlo(SessionConfig(mu_count=k, runs=100),
                         scenarios=("mcrcd",))
        feas[k] = np.mean(mc.run_scalars("mcrcd", "feasible"))
    sweep = ks + [10, 12, 14, 16]
    assert feas[3] >= 0.4, feas
    assert feas[16] <= 0.25, feas
    assert feas[16] <= 0.5 * feas[3], feas
    for a, b in zip(sweep, sweep[1:]):
        assert feas[b] <= feas[a] + 0.05, (a, b, feas)
    _passline(5, "thr down {:.2e}->{:.2e}; cev down {:.3f}->{:.3f}; "
              "feasible {:.2f}->{:.2f}".format(
                  thr[3], thr[8], cev[3], cev[8], feas[3], feas[16]),
              build_time + time.perf_counter() - t0, 180.0)


def test_criterion_6_grim_trigger_semantics(power):
    t0 = time.perf_counter()
    checked = 0
    run_index = 0
    while checked < 50:
        k = 3 + run_index % 4
        cfg = SessionConfig(mu_count=k, runs=1, master_seed=RNG_SEED + 3)
        inst = _slot_instance(cfg, run_index)
        run_index += 1
        assert run_index < 600
        if inst is None:
            continue
        _, _, _, sched, report = inst
        cev = tuple(critical_expectation(m, report, sched, power)
                    for m in range(k))
        # beliefs at or above every threshold: cooperation for all slots
        state = GameState(beliefs=(max(cev),) * k, cev=cev)
        for _ in range(10):
            actions, state = grim_trigger_step(state)
            assert actions == (COOPERATE,) * k
        assert not state.triggered
        # one belief below its threshold: defection then permanent collapse
        victim = int(np.argmax(cev))
        beliefs = [1.0] * k
        beliefs[victim] = max(0.0, cev[victim] - 0.01)
        if beliefs[victim] >= cev[victim]:  # threshold zero, nothing to defect
            checked += 1
            continue
        state = GameState(beliefs=tuple(beliefs), cev=cev)
        actions, state = grim_trigger_step(state)
        assert actions[victim] == DEFECT
        assert state.triggered
        for _ in range(3):
            actions, state = grim_trigger_step(state)
            assert actions == (DEFECT,) * k
        # triggered state is absorbing regardless of beliefs
        state = GameState(beliefs=(1.0,) * k, cev=(0.0,) * k, triggered=True)
        actions, state = grim_trigger_step(state)
        assert actions == (DEFECT,) * k and state.triggered
        checked += 1
    _passline(6, f"{checked} instances: all-C, defect-then-collapse, absorbing",
              time.perf_counter() - t0, 5.0)


def test_criterion_7_lp_solver_vs_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 4)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(500):
        kw = random_lp(rng)
        sol = solve(LpProblem(**kw))
        status, best = solve_lp_by_enumeration(
            kw["objective"], a_eq=kw["a_eq"], b_eq=kw["b_eq"],
            a_ub=kw["a_ub"], b_ub=kw["b_ub"])
        assert sol.status == status
        if status == "optimal":
            assert sol.objective_value == pytest.approx(best, abs=1e-6)
        statuses[status] += 1
    assert min(statuses.values()) > 10  # all three outcomes exercised
    _passline(7, "500 LPs, status agreement 100%, objectives within 1e-6 "
              f"({statuses})", time.perf_counter() - t0, 10.0)


def test_criterion_8_exact_enumeration_self_check():
    t0 = time.perf_counter()
    star_matches = 0
    for k in (4, 5):
        cfg = SessionConfig(mu_count=k, runs=1, master_seed=RNG_SEED + 5)
        for run_index in range(100):
            topo = generate_topology(cfg, run_index)
            exact = run_optimal(topo, cfg, mode="exact")
            heur = run_optimal(topo, cfg, mode="heuristic")
            tot_e = sum(exact.per_mu_energy)
            tot_h = sum(heur.per_mu_energy)
            assert tot_h >= tot_e - 1e-9, (k, run_index, tot_h, tot_e)
            if exact.feasible_fraction == 1.0 and \
                    tot_e == pytest.approx(3.225 + 0.925 * (k - 1), abs=1e-9) \
                    and tot_h == pytest.approx(tot_e, abs=1e-9):
                star_matches += 1
    assert star_matches >= 1
    _passline(8, f"200 instances, heuristic >= exact; {star_matches} "
              "star-dominant matches", time.perf_counter() - t0, 60.0)
