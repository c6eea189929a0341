import numpy as np
import pytest

from conftest import chain, star
from oracles import (cev_bisection, discounted_partial_sum, discounted_payoff,
                     simplex_grid)

from d2dlan import (COOPERATE, DEFECT, GameState, cev_components,
                    critical_expectation, deviation_energy, energy_report,
                    grim_trigger_step, multicast_energy, solve_schedule)
from d2dlan.energy import schedule_watt_matrix


def symmetric_star_schedule(power, k=3):
    graphs = [star(m, k) for m in range(k)]
    sched = solve_schedule(graphs, power)
    report = energy_report(graphs, sched.rho, power)
    return graphs, sched, report


# --- scheduling ---------------------------------------------------------------


def test_two_mu_stars_are_infeasible(power):
    # each seed-time is capped at (1.8-0.925)/2.3, two caps cannot sum to 1
    graphs = [star(0, 2), star(1, 2)]
    sched = solve_schedule(graphs, power)
    assert not sched.feasible
    assert 2 * (1.8 - 0.925) / 2.3 < 1.0


def test_three_star_tie_break_is_uniform(power):
    _, sched, _ = symmetric_star_schedule(power)
    assert sched.feasible
    assert sched.rho == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-9)
    assert sched.objective == pytest.approx(3.225 + 2 * 0.925, abs=1e-9)


def test_chain_relay_coefficient(power):
    # MU 2's tree makes MU 0 a relay: chain 2 -> 0 -> 1
    graphs = [star(0, 3), star(1, 3), chain([2, 0, 1], 3)]
    watt = schedule_watt_matrix(graphs, power)
    assert watt[0, 2] == pytest.approx(2.35)
    sched = solve_schedule(graphs, power)
    grid = simplex_grid(3, 0.01)
    watt_t = watt * power.slot_duration
    feas = np.all(grid @ watt_t.T <= multicast_energy(power) + 1e-9, axis=1)
    # relay compensation cannot cover three seeds here: both the LP and the
    # grid must agree the split is impossible
    assert not sched.feasible
    assert not feas.any()


def test_schedule_grid_agreement_with_relay_column(power):
    # four stars plus one relay-bearing tree: feasible, and the LP optimum
    # must not exceed any grid point satisfying the rationality rows
    graphs = [star(0, 4), star(1, 4), star(2, 4), chain([3, 0, 1], 4)]
    watt = schedule_watt_matrix(graphs, power)
    assert watt[0, 3] == pytest.approx(2.35)
    sched = solve_schedule(graphs, power)
    assert sched.feasible
    grid = simplex_grid(4, 0.02)
    watt_t = watt * power.slot_duration
    feas = np.all(grid @ watt_t.T <= multicast_energy(power) + 1e-9, axis=1)
    assert feas.any()
    grid_obj = (grid @ watt_t.sum(axis=0)).min(where=feas, initial=np.inf)
    assert sched.objective <= grid_obj + 1e-9


def test_schedule_objective_matches_energy_module(power):
    graphs, sched, report = symmetric_star_schedule(power)
    assert sched.objective == pytest.approx(float(report.per_mu_d2d.sum()),
                                            abs=1e-9)


def test_schedule_satisfies_irc(power):
    graphs, sched, report = symmetric_star_schedule(power, k=4)
    assert sched.feasible
    assert np.all(report.per_mu_d2d <= report.per_mu_multicast + 1e-9)


# --- payoffs ------------------------------------------------------------------
# Stage payoffs are negated slot energies: everyone cooperates (the report's
# D2D row), everyone defects (its multicast row), one MU free-rides while
# the rest cooperate (deviation_energy).


def test_stage_payoffs_symmetric_star(power):
    _, sched, report = symmetric_star_schedule(power)
    assert report.per_mu_d2d == pytest.approx(((3.225 + 1.85) / 3,) * 3,
                                              abs=1e-9)
    assert report.per_mu_multicast == pytest.approx((1.8,) * 3, abs=0)
    expected_defect = 1.8 / 3 + (2 / 3) * 0.925
    for m in range(3):
        assert deviation_energy(m, sched, power) == pytest.approx(
            expected_defect, abs=1e-9)


def test_incentive_ordering(power):
    # free-riding beats cooperating beats everyone defecting
    _, sched, report = symmetric_star_schedule(power, k=4)
    for k in range(4):
        assert deviation_energy(k, sched, power) <= report.per_mu_d2d[k] + 1e-12
        assert report.per_mu_d2d[k] <= report.per_mu_multicast[k] + 1e-9


# --- cooperation threshold -------------------------------------------------------


def test_cev_hand_case(power):
    _, sched, report = symmetric_star_schedule(power)
    cev = critical_expectation(0, report, sched, power)
    e_coop = 3.225 / 3 + 2 * 0.925 / 3
    a_dev = 1.8 / 3 + (2 / 3) * 0.925
    expected = (e_coop - a_dev) / (1.8 - a_dev)
    assert cev == pytest.approx(expected, abs=1e-9)
    assert cev == pytest.approx(0.81429, abs=1e-5)
    oracle = cev_bisection(e_coop, 1.8, a_dev)
    assert cev == pytest.approx(oracle, abs=1e-9)


def test_cev_zero_when_cooperation_costless(power):
    # all-sink world: cooperating costs exactly what free-riding costs
    comp = cev_components(1, _report_with(power, star(0, 3)), _sched(power), power)
    assert comp.value == pytest.approx(0.0, abs=1e-12)


def _sched(power):
    graphs = [star(0, 3), star(1, 3), star(2, 3)]
    return solve_schedule(graphs, power)


def _report_with(power, graph):
    # replace every graph with one in which MU 1 is a pure sink
    sched = _sched(power)
    graphs = [star(0, 3), star(0, 3), star(0, 3)]
    from d2dlan import EnergyReport
    contrib = energy_report(graphs, sched.rho, power).per_graph_contribution.copy()
    # MU 1 cooperative cost equals its deviation cost by construction
    contrib[1, :] = [deviation_energy(1, sched, power) * r for r in sched.rho]
    return EnergyReport(per_mu_multicast=np.full(3, 1.8),
                        per_mu_d2d=contrib.sum(axis=1),
                        per_graph_contribution=contrib)


def test_cev_one_when_irc_tight(power):
    # cooperative slot cost equal to the baseline leaves no incentive slack
    from d2dlan import EnergyReport
    sched = _sched(power)
    contrib = np.full((3, 3), 0.6)
    report = EnergyReport(per_mu_multicast=np.full(3, 1.8),
                          per_mu_d2d=contrib.sum(axis=1),
                          per_graph_contribution=contrib)
    assert critical_expectation(0, report, sched, power) == pytest.approx(1.0)


def test_cev_degenerate_denominator_flag():
    from d2dlan import EnergyReport, PowerConstants, Schedule
    power = PowerConstants()
    sched = Schedule(rho=(1.0, 0.0, 0.0), feasible=True)
    contrib = np.full((3, 3), 0.6)
    report = EnergyReport(per_mu_multicast=np.full(3, 1.8),
                          per_mu_d2d=contrib.sum(axis=1),
                          per_graph_contribution=contrib)
    comp = cev_components(0, report, sched, power)
    # rho=1 makes the deviation slot equal the baseline slot
    assert comp.degenerate
    assert comp.value == 1.0


def test_cev_printed_variant_differs(power):
    # the paper prints the threshold's denominator as
    # E_base - (P_lr - P_sr) rho t + P_sr t; the library uses E_base - E_dev,
    # which subtracts the SR-reception term instead
    _, sched, report = symmetric_star_schedule(power)
    proof_form = critical_expectation(0, report, sched, power)
    t = power.slot_duration
    e_coop = float(report.per_mu_d2d[0])
    a_dev = deviation_energy(0, sched, power)
    printed = (e_coop - a_dev) / (
        1.8 - (power.p_rx_lr - power.p_rx_sr) * sched.rho[0] * t
        + power.p_rx_sr * t)
    assert 0.0 < printed < proof_form
    # the printed variant fails the series indifference check
    assert cev_bisection(e_coop, 1.8, a_dev) != pytest.approx(printed, abs=1e-3)
    assert cev_bisection(e_coop, 1.8, a_dev) == pytest.approx(proof_form,
                                                              abs=1e-9)


def test_cev_threshold_separates_strategies(power):
    # simulated discounted cost over many slots: cooperation is weakly
    # cheaper than a one-shot deviation exactly above the threshold
    _, sched, report = symmetric_star_schedule(power)
    p_star = critical_expectation(0, report, sched, power)
    e_coop = float(report.per_mu_d2d[0])
    e_base = 1.8
    a_dev = deviation_energy(0, sched, power)

    def costs(p, n=10_000):
        weights = p ** np.arange(n)
        coop = e_coop * weights.sum()
        deviate = a_dev + e_base * weights[1:].sum()
        return coop, deviate

    for delta in (1e-3, 1e-2):
        coop, deviate = costs(p_star + delta)
        assert coop <= deviate
        coop, deviate = costs(p_star - delta)
        assert coop >= deviate


# --- grim trigger -----------------------------------------------------------------


def test_grim_trigger_all_cooperate(power):
    state = GameState(beliefs=(0.9, 0.9, 0.9), cev=(0.5, 0.6, 0.7))
    for _ in range(10):
        actions, state = grim_trigger_step(state)
        assert actions == (COOPERATE,) * 3
    assert not state.triggered
    assert len(state.history) == 10


def test_grim_trigger_single_defector_collapses_future(power):
    state = GameState(beliefs=(0.9, 0.4, 0.9), cev=(0.5, 0.6, 0.7))
    actions, state = grim_trigger_step(state)
    assert actions == (COOPERATE, DEFECT, COOPERATE)
    assert state.triggered
    actions, state = grim_trigger_step(state)
    assert actions == (DEFECT,) * 3


def test_grim_trigger_absorbing(power):
    state = GameState(beliefs=(1.0, 1.0), cev=(0.0, 0.0), triggered=True)
    for _ in range(3):
        actions, state = grim_trigger_step(state)
        assert actions == (DEFECT, DEFECT)
        assert state.triggered


def test_game_state_validation():
    with pytest.raises(ValueError):
        GameState(beliefs=(1.2,), cev=(0.5,))


# --- discounted payoff ---------------------------------------------------------------


def test_discounted_payoff_examples():
    assert discounted_payoff(0.0, 1.7) == pytest.approx(-1.7)
    e = 3.225 / 3 + 2 * 0.925 / 3
    assert discounted_payoff(0.5, e) == pytest.approx(-2 * e, rel=1e-12)
    assert discounted_payoff(0.5, e) == pytest.approx(
        discounted_partial_sum(0.5, e), abs=1e-11)
    assert discounted_payoff(0.3, 0.0) == 0.0


def test_discounted_payoff_rejects_divergent():
    with pytest.raises(ValueError):
        discounted_payoff(1.0, 1.0)
    with pytest.raises(ValueError):
        discounted_payoff(-0.1, 1.0)
