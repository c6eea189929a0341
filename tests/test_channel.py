import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, gain_topology, star, symmetric_gain_matrix
from oracles import lr_rate_subcarrier_sum, sr_rate_subcarrier_sum

from d2dlan import (RadioConfig, RateTable, lr_rate, pathloss_gain, rate_table,
                    reception_rate, sr_rate)


def test_pathloss_reference_values():
    assert pathloss_gain(1.0, 37.0, 3.5) == pytest.approx(10 ** -3.7, rel=1e-12)
    assert pathloss_gain(100.0, 37.0, 3.5) == pytest.approx(10 ** -10.7, rel=1e-12)
    assert pathloss_gain(1.0, 0.0, 2.0) == 1.0


def test_pathloss_clamps_below_one_meter():
    assert pathloss_gain(0.2, 37.0, 3.5) == pathloss_gain(1.0, 37.0, 3.5)


def test_pathloss_rejects_non_finite():
    with pytest.raises(ValueError):
        pathloss_gain(float("nan"), 37.0, 3.5)
    with pytest.raises(ValueError):
        pathloss_gain(float("inf"), 37.0, 3.5)


def test_pathloss_monotone_in_distance():
    d = np.linspace(1, 500, 200)
    g = pathloss_gain(d, 37.0, 3.5)
    assert np.all(np.diff(g) <= 0)


def test_lr_rate_zero_gain(radio):
    topo = gain_topology([0.0, 1e-12], symmetric_gain_matrix(2, {(0, 1): 1e-10}))
    assert lr_rate(0, topo) == 0.0


def test_lr_rate_unit_sinr_per_subcarrier():
    # with no interference and beta * signal == noise, each subcarrier
    # carries exactly one bit per second per hertz
    radio = RadioConfig(interference_fraction=0.0)
    h = radio.noise_power / (radio.snr_gap * radio.bs_power_per_subcarrier)
    topo = gain_topology([h, h], symmetric_gain_matrix(2, {(0, 1): 1e-10}),
                         radio=radio)
    assert lr_rate(0, topo) == pytest.approx(radio.bandwidth_total, rel=1e-9)


def test_lr_rate_matches_subcarrier_sum(radio):
    # B=5 MHz, X=25, alpha=12, Pe=1e-3, P=5 W: frozen spot value ~4.7e7 bit/s
    h = 2e-11
    topo = gain_topology([h, h], symmetric_gain_matrix(2, {(0, 1): 1e-10}))
    got = lr_rate(0, topo)
    assert got == pytest.approx(lr_rate_subcarrier_sum(h, radio), rel=1e-12)
    assert got == pytest.approx(4.73e7, rel=2e-2)


def test_multicast_rate_is_min(radio):
    topo = gain_topology([5e-11, 2e-11, 8e-11],
                         symmetric_gain_matrix(3, {(0, 1): 1e-10, (0, 2): 1e-10,
                                                   (1, 2): 1e-10}))
    table = rate_table(topo)
    assert table.multicast_rate == table.lr_rate.min()
    assert table.multicast_rate == lr_rate(1, topo)


def test_multicast_rate_singleton(radio):
    topo = gain_topology([3e-11], np.zeros((1, 1)))
    assert rate_table(topo).multicast_rate == lr_rate(0, topo)


def test_multicast_rate_equal_gains(radio):
    topo = gain_topology([2e-11] * 3,
                         symmetric_gain_matrix(3, {(0, 1): 1e-10, (0, 2): 1e-10,
                                                   (1, 2): 1e-10}))
    assert rate_table(topo).multicast_rate == lr_rate(0, topo)


def test_sr_rate_zero_gain(radio):
    topo = gain_topology([1e-11, 1e-11], np.zeros((2, 2)))
    assert sr_rate(0, 1, topo) == 0.0


def test_sr_rate_unit_sinr_per_subcarrier():
    radio = RadioConfig(interference_fraction=0.0)
    g = radio.noise_power / radio.sr_power_per_subcarrier
    topo = gain_topology([1e-11, 1e-11], symmetric_gain_matrix(2, {(0, 1): g}),
                         radio=radio)
    assert sr_rate(0, 1, topo) == pytest.approx(radio.bandwidth_total, rel=1e-9)


def test_sr_rate_matches_subcarrier_sum(radio):
    g = 3e-10
    topo = gain_topology([1e-11, 1e-11], symmetric_gain_matrix(2, {(0, 1): g}))
    assert sr_rate(0, 1, topo) == pytest.approx(sr_rate_subcarrier_sum(g, radio),
                                                rel=1e-12)


def test_sr_rate_symmetry(radio):
    topo = gain_topology([1e-11] * 3,
                         symmetric_gain_matrix(3, {(0, 1): 3e-10, (0, 2): 5e-11,
                                                   (1, 2): 9e-12}))
    for i in range(3):
        for j in range(i + 1, 3):
            assert sr_rate(i, j, topo) == sr_rate(j, i, topo)


def test_sr_rate_rejects_self_link(radio):
    topo = gain_topology([1e-11, 1e-11], symmetric_gain_matrix(2, {(0, 1): 1e-10}))
    with pytest.raises(ValueError):
        sr_rate(1, 1, topo)


@settings(max_examples=60, deadline=None)
@given(g1=st.floats(min_value=1e-15, max_value=1e-6),
       g2=st.floats(min_value=1e-15, max_value=1e-6))
def test_rates_monotone_in_gain(g1, g2):
    radio = RadioConfig()
    lo, hi = sorted([g1, g2])
    topo_lo = gain_topology([lo, lo], symmetric_gain_matrix(2, {(0, 1): lo}),
                            radio=radio)
    topo_hi = gain_topology([hi, hi], symmetric_gain_matrix(2, {(0, 1): hi}),
                            radio=radio)
    assert lr_rate(0, topo_lo) <= lr_rate(0, topo_hi)
    assert sr_rate(0, 1, topo_lo) <= sr_rate(0, 1, topo_hi)


def test_rates_scale_linearly_with_bandwidth():
    # widening the band leaves every per-subcarrier SINR unchanged
    base = RadioConfig()
    doubled = RadioConfig(bandwidth_total=2 * base.bandwidth_total)
    sr = symmetric_gain_matrix(2, {(0, 1): 2e-10})
    t1 = gain_topology([2e-11, 2e-11], sr, radio=base)
    t2 = gain_topology([2e-11, 2e-11], sr, radio=doubled)
    assert lr_rate(0, t2) == pytest.approx(2 * lr_rate(0, t1), rel=1e-12)
    assert sr_rate(0, 1, t2) == pytest.approx(2 * sr_rate(0, 1, t1), rel=1e-12)


def test_rate_table_consistency(radio):
    topo = gain_topology([5e-11, 2e-11, 8e-11],
                         symmetric_gain_matrix(3, {(0, 1): 3e-10, (0, 2): 5e-11,
                                                   (1, 2): 9e-12}))
    table = rate_table(topo)
    assert table.multicast_rate == table.lr_rate.min()
    assert np.all(np.diag(table.sr_rate) == 0)
    assert np.array_equal(table.sr_rate, table.sr_rate.T)
    for k in range(3):
        assert table.multicast_rate <= table.lr_rate[k]
        assert table.lr_rate[k] == lr_rate(k, topo)
        for j in range(3):
            if j != k:
                assert table.sr_rate[k, j] == sr_rate(k, j, topo)


def test_rate_table_validation_rejects_bad_min():
    # the multicast rate is derived from the cellular rates, never passed in
    lr = np.array([2.0, 1.0, 3.0])
    table = RateTable(lr_rate=lr, sr_rate=np.zeros((3, 3)))
    assert table.multicast_rate == lr.min()
    with pytest.raises(TypeError):
        RateTable(lr_rate=lr, multicast_rate=2.0, sr_rate=np.zeros((3, 3)))
    # a NaN rate would leave the minimum undefined
    with pytest.raises(ValueError, match="finite"):
        RateTable(lr_rate=np.array([1.0, np.nan]), sr_rate=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        RateTable(lr_rate=np.ones(2), sr_rate=np.array([[0.0, np.inf],
                                                         [np.inf, 0.0]]))


def _hand_table(lr, sr):
    return RateTable(lr_rate=np.asarray(lr, float),
                     sr_rate=np.asarray(sr, float))


def test_reception_rate_star_min_of_children():
    # seed 0 with children 1, 2: both receive at the seed's multicast rate
    rates = _hand_table([10.0, 4.0, 4.0],
                        [[0, 8, 6], [8, 0, 1], [6, 1, 0]])
    graph = star(0, 3)
    assert reception_rate(1, graph, rates) == 6.0
    assert reception_rate(2, graph, rates) == 6.0
    assert reception_rate(0, graph, rates) == 10.0


def test_reception_rate_single_node():
    rates = _hand_table([7.0], [[0.0]])
    graph = star(0, 1)
    assert reception_rate(0, graph, rates) == 7.0


def test_reception_rate_chain_propagates_floor():
    # every SR hop is faster than the seed's cellular rate, so the cellular
    # rate propagates to the end of the chain
    rates = _hand_table([5.0, 1.0, 1.0],
                        [[0, 9, 2], [9, 0, 8], [2, 8, 0]])
    graph = chain([0, 1, 2], 3)
    assert reception_rate(2, graph, rates) == 5.0
    assert reception_rate(1, graph, rates) == 5.0


def test_reception_rate_non_seed_never_exceeds_parent():
    rates = _hand_table([5.0, 1.0, 1.0, 1.0],
                        [[0, 4, 2, 9], [4, 0, 3, 9], [2, 3, 0, 9], [9, 9, 9, 0]])
    graph = chain([0, 1, 2], 4)
    r1 = reception_rate(1, graph, rates)
    r2 = reception_rate(2, graph, rates)
    assert r2 <= r1 <= reception_rate(0, graph, rates)


def test_reception_rate_requires_membership():
    rates = _hand_table([5.0, 1.0, 1.0],
                        [[0, 9, 2], [9, 0, 8], [2, 8, 0]])
    graph = chain([0, 1], 3)  # MU 2 unconnected
    with pytest.raises(ValueError):
        reception_rate(2, graph, rates)


def test_radio_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(target_error_prob=0.25)
    with pytest.raises(ValueError):
        RadioConfig(noise_power=0.0)
    with pytest.raises(ValueError):
        RadioConfig(interference_fraction=-1e-9)
    cfg = RadioConfig()
    assert cfg.snr_gap > 0
    assert cfg.subcarrier_bandwidth > 0
    assert cfg.snr_gap == pytest.approx(1.5 / (-math.log(5e-3)), rel=1e-12)


@pytest.mark.parametrize("name", [
    "bandwidth_total", "bs_power_total", "sr_power_max", "noise_power",
    "target_error_prob", "interference_fraction", "pathloss_ref_db",
    "pathloss_exp_lr", "pathloss_exp_sr"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_radio_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RadioConfig(**{name: value})
