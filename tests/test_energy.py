import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, star

from d2dlan import (PowerConstants, ProposalOrder, SessionConfig,
                    build_preferences, energy_report, estimate_graph,
                    generate_topology, multicast_energy, rate_table,
                    role_power, solve_schedule)


def three_stars():
    return [star(m, 3) for m in range(3)]


def test_multicast_energy_defaults(power):
    assert multicast_energy(power) == pytest.approx(1.8, abs=0)


def test_multicast_energy_scales_with_slot():
    assert multicast_energy(PowerConstants(slot_duration=2.0)) == pytest.approx(3.6)
    # a zero-length slot carries no bits and draws no energy: every bits/J
    # figure would be 0/0, so it is refused up front
    with pytest.raises(ValueError, match="slot_duration must be positive"):
        PowerConstants(slot_duration=0.0)


@pytest.mark.parametrize("name", ["p_rx_lr", "p_rx_sr", "p_tx_sr",
                                  "slot_duration"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_power_constants_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PowerConstants(**{name: value})


def test_role_energy_seed_with_children(power):
    report = energy_report(three_stars(), [1.0, 0.0, 0.0], power)
    assert report.per_graph_contribution[0, 0] == pytest.approx(3.225)


def test_role_energy_childless_seed(power):
    # a seed nobody joined only pays for its own cellular download
    report = energy_report([star(0, 1)], [1.0], power)
    assert report.per_graph_contribution[0, 0] == pytest.approx(1.8)


def test_role_energy_relay(power):
    graphs = [chain([0, 1, 2], 3), star(1, 3), star(2, 3)]
    report = energy_report(graphs, [1.0, 0.0, 0.0], power)
    assert report.per_graph_contribution[1, 0] == pytest.approx(2.35)


def test_role_energy_sink(power):
    report = energy_report(three_stars(), [0.5, 0.5, 0.0], power)
    assert report.per_graph_contribution[1, 0] == pytest.approx(0.4625)


def test_role_energy_unconnected_falls_back_to_cellular(power):
    graphs = [chain([0, 1], 3), star(1, 3), star(2, 3)]
    report = energy_report(graphs, [0.5, 0.5, 0.0], power)
    assert report.per_graph_contribution[2, 0] == pytest.approx(0.9)


def test_role_energy_zero_fraction(power):
    report = energy_report(three_stars(), [0.0, 1.0, 0.0], power)
    for mu in range(3):
        assert report.per_graph_contribution[mu, 0] == 0.0


def test_role_energy_rejects_bad_fraction(power):
    graphs = [star(0, 2), star(1, 2)]
    with pytest.raises(ValueError):
        energy_report(graphs, [1.2, -0.2], power)
    with pytest.raises(ValueError):
        energy_report(graphs, [-0.1, 1.1], power)


def test_role_power_ordering(power):
    # seed with children > relay > sink per unit seed time
    seed_p = role_power(0, star(0, 3), power)
    relay_p = role_power(1, chain([0, 1, 2], 3), power)
    sink_p = role_power(1, star(0, 3), power)
    assert seed_p > relay_p > sink_p
    assert (seed_p, relay_p, sink_p) == pytest.approx((3.225, 2.35, 0.925))


@pytest.mark.parametrize("slot_duration", [1.0, 0.37])
def test_report_is_role_power_times_seed_time(slot_duration):
    # the report is the role-power rule and nothing else, to the last bit
    power = PowerConstants(slot_duration=slot_duration)
    t = power.slot_duration
    checked = 0
    for k in range(3, 9):
        config = SessionConfig(mu_count=k, master_seed=11, runs=2,
                               power=power)
        for run in range(4):
            topo = generate_topology(config, run)
            rates = rate_table(topo)
            prefs = build_preferences(topo, rates)
            graphs = [
                estimate_graph(topo, rates, m,
                               ProposalOrder(tuple(x for x in range(k)
                                                   if x != m)),
                               prefs, config.max_hops)
                for m in range(k)
            ]
            sched = solve_schedule(graphs, power)
            if not sched.feasible:
                continue
            contrib = energy_report(graphs, sched.rho,
                                    power).per_graph_contribution
            for mu in range(k):
                for m in range(k):
                    assert contrib[mu, m] == \
                        role_power(mu, graphs[m], power) * sched.rho[m] * t
            checked += 1
    assert checked >= 6


def test_total_d2d_energy_two_stars(power):
    report = energy_report([star(0, 2), star(1, 2)], [0.5, 0.5], power)
    assert report.per_mu_d2d[0] == pytest.approx(2.075)


def test_total_d2d_energy_symmetric_three_stars(power):
    report = energy_report(three_stars(), [1 / 3] * 3, power)
    expected = (3.225 + 2 * 0.925) / 3
    assert report.per_mu_d2d == pytest.approx([expected] * 3)


def test_total_d2d_energy_degenerate_schedule(power):
    report = energy_report(three_stars(), [1.0, 0.0, 0.0], power)
    assert report.per_mu_d2d == pytest.approx([3.225, 0.925, 0.925])


def test_total_d2d_energy_validates_inputs(power):
    graphs = [star(0, 2), star(1, 2)]
    with pytest.raises(ValueError):
        energy_report(graphs, [0.5], power)
    with pytest.raises(ValueError):
        energy_report(graphs, [0.7, 0.7], power)


def test_energy_report_identity(power):
    graphs = [star(0, 3), chain([1, 0, 2], 3), star(2, 3)]
    rho = [0.2, 0.5, 0.3]
    report = energy_report(graphs, rho, power)
    assert np.all(report.per_mu_d2d
                  == report.per_graph_contribution.sum(axis=1))
    assert np.all(report.per_mu_multicast == multicast_energy(power))
    for mu in range(3):
        assert report.per_mu_d2d[mu] == pytest.approx(
            sum(role_power(mu, g, power) * r for g, r in zip(graphs, rho)))


@settings(max_examples=40, deadline=None)
@given(rho0=st.floats(min_value=0.0, max_value=1.0),
       scale=st.floats(min_value=0.1, max_value=1.0))
def test_total_energy_linear_in_rho(rho0, scale):
    power = PowerConstants()
    graphs = three_stars()
    rest = 1.0 - rho0
    rho_a = [rho0, rest, 0.0]
    rho_b = [rho0, rest * scale, rest * (1.0 - scale)]
    report_a = energy_report(graphs, rho_a, power)
    report_b = energy_report(graphs, rho_b, power)
    # coefficient of each graph is that graph's role power times slot time
    for mu in range(3):
        expected_a = sum(role_power(mu, g, power) * r
                         for g, r in zip(graphs, rho_a))
        expected_b = sum(role_power(mu, g, power) * r
                         for g, r in zip(graphs, rho_b))
        assert report_a.per_mu_d2d[mu] == pytest.approx(expected_a)
        assert report_b.per_mu_d2d[mu] == pytest.approx(expected_b)


def test_all_star_total_independent_of_rho(power):
    # with star graphs for every seed the population total is constant in rho
    graphs = [star(m, 4) for m in range(4)]
    totals = []
    for rho in ([0.25] * 4, [0.7, 0.1, 0.1, 0.1], [0.0, 0.0, 0.5, 0.5]):
        totals.append(float(energy_report(graphs, rho, power).per_mu_d2d.sum()))
    expected = 3.225 + 3 * 0.925
    assert totals == pytest.approx([expected] * 3)


def test_role_exclusivity(power):
    graphs = [star(0, 4), chain([1, 2, 3], 4), star(2, 4)]
    for graph in graphs:
        for mu in range(4):
            p = role_power(mu, graph, power)
            assert p in (pytest.approx(3.225), pytest.approx(2.35),
                         pytest.approx(0.925), pytest.approx(1.8))


def test_power_constants_validation():
    with pytest.raises(ValueError):
        PowerConstants(p_rx_lr=0.0)
    with pytest.raises(ValueError):
        PowerConstants(slot_duration=-1.0)
