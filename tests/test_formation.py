import numpy as np
import pytest

from conftest import (FIXTURES, dump_fixture, gain_topology, load_fixture,
                      symmetric_gain_matrix)
from oracles import verify_formation

from d2dlan import (FormationGraph, ProposalOrder, build_preferences,
                    estimate_graph, rate_table, rotate_order)


def topo_for(gain_lr, pairs):
    return gain_topology(gain_lr, symmetric_gain_matrix(len(gain_lr), pairs))


def test_build_preferences_sorts_descending():
    # rates toward peers 1, 2, 3 are (5, 9, 1)-ordered via gains
    topo = topo_for([1e-11] * 4,
                    {(0, 1): 5e-11, (0, 2): 9e-11, (0, 3): 1e-11,
                     (1, 2): 2e-11, (1, 3): 3e-11, (2, 3): 4e-11})
    prefs = build_preferences(topo, rate_table(topo))
    assert prefs.prefs[0] == (2, 1, 3)


def test_build_preferences_tie_breaks_ascending():
    topo = topo_for([1e-11] * 3,
                    {(0, 1): 5e-11, (0, 2): 5e-11, (1, 2): 5e-11})
    prefs = build_preferences(topo, rate_table(topo))
    assert prefs.prefs[0] == (1, 2)
    assert prefs.prefs[1] == (0, 2)
    assert prefs.prefs[2] == (0, 1)


def test_build_preferences_two_nodes():
    topo = topo_for([1e-11] * 2, {(0, 1): 5e-11})
    prefs = build_preferences(topo, rate_table(topo))
    assert prefs.prefs == ((1,), (0,))


def test_rotate_order():
    assert rotate_order(ProposalOrder((2, 3, 4))).order == (3, 4, 2)
    assert rotate_order(ProposalOrder((7,))).order == (7,)
    order = ProposalOrder((1, 2, 3))
    out = order
    for _ in range(3):
        out = rotate_order(out)
    assert out == order


def test_two_nodes_accept():
    # strong link: the single proposer joins the seed
    topo = topo_for([1e-12, 1e-12], {(0, 1): 1e-9})
    rates = rate_table(topo)
    graph = estimate_graph(topo, rates, 0, ProposalOrder((1,)),
                           build_preferences(topo, rates), 4)
    assert graph.parent == (None, 0)
    assert graph.connected == (True, True)


def test_two_nodes_reject():
    # link below the seed's cellular rate: the proposer acts alone
    topo = topo_for([1e-10, 1e-10], {(0, 1): 1e-13})
    rates = rate_table(topo)
    graph = estimate_graph(topo, rates, 0, ProposalOrder((1,)),
                           build_preferences(topo, rates), 4)
    assert graph.parent == (None, None)
    assert graph.connected == (True, False)


CHAIN_GAINS = {(0, 1): 1e-10, (1, 2): 2e-10, (2, 3): 4e-10,
               (0, 2): 1e-11, (0, 3): 1e-11, (1, 3): 1e-11}


def test_chain_forms_when_top_choices_accept():
    # every SR rate beats every cellular rate and each link up the chain is
    # stronger than the previous one, so each proposer lands its favorite
    topo = topo_for([1e-13] * 4, CHAIN_GAINS)
    rates = rate_table(topo)
    assert rates.sr_rate.max() > 0
    assert float(np.min(rates.sr_rate[rates.sr_rate > 0])) > float(rates.lr_rate.max())
    graph = estimate_graph(topo, rates, 0, ProposalOrder((1, 2, 3)),
                           build_preferences(topo, rates), 4)
    assert graph.parent == (None, 0, 1, 2)
    assert graph.depth == (0, 1, 2, 3)


def test_hop_limit_redirects_deep_proposals():
    topo = topo_for([1e-13] * 4, CHAIN_GAINS)
    rates = rate_table(topo)
    graph = estimate_graph(topo, rates, 0, ProposalOrder((1, 2, 3)),
                           build_preferences(topo, rates), max_hops=2)
    # MU 3's favorite sits at the hop limit; it falls back to the seed
    assert graph.parent == (None, 0, 1, 0)
    assert graph.depth == (0, 1, 2, 1)


def test_golden_fixture():
    text = (FIXTURES / "golden_formation_k4.txt").read_text()
    topo, seed, order, max_hops, expected = load_fixture(text)
    rates = rate_table(topo)
    prefs = build_preferences(topo, rates)
    graph = estimate_graph(topo, rates, seed, order, prefs, max_hops)
    assert graph.parent == expected
    assert graph.depth == (0, 1, 1, 0)
    assert graph.connected == (True, True, True, False)
    # round trip through the dump format
    assert dump_fixture(topo, seed, order, max_hops, graph) == text


def test_estimate_graph_rejects_bad_order():
    topo = topo_for([1e-11] * 3, {(0, 1): 1e-10, (0, 2): 1e-10, (1, 2): 1e-10})
    rates = rate_table(topo)
    prefs = build_preferences(topo, rates)
    with pytest.raises(ValueError):
        estimate_graph(topo, rates, 0, ProposalOrder((1,)), prefs, 4)
    with pytest.raises(ValueError):
        estimate_graph(topo, rates, 0, ProposalOrder((0, 1)), prefs, 4)


def _random_instance(rng, k):
    pos = rng.uniform(0, 400, size=(k, 2))
    from d2dlan import Topology, RadioConfig, pathloss_gain
    radio = RadioConfig()
    bs = np.array([200.0, 200.0])
    glr = pathloss_gain(np.linalg.norm(pos - bs, axis=1),
                        radio.pathloss_ref_db, radio.pathloss_exp_lr)
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
    gsr = pathloss_gain(d, radio.pathloss_ref_db, radio.pathloss_exp_sr)
    np.fill_diagonal(gsr, 0.0)
    gsr = np.triu(gsr, 1) + np.triu(gsr, 1).T
    return Topology(bs_position=bs, mu_positions=pos, gain_lr=glr,
                    gain_sr=gsr, radio=radio)


def test_random_instances_satisfy_invariants():
    rng = np.random.default_rng(7)
    for _ in range(60):
        k = int(rng.integers(2, 10))
        topo = _random_instance(rng, k)
        rates = rate_table(topo)
        prefs = build_preferences(topo, rates)
        seed = int(rng.integers(k))
        order = ProposalOrder(tuple(rng.permutation(
            [x for x in range(k) if x != seed]).tolist()))
        h = int(rng.integers(1, 5))
        graph = estimate_graph(topo, rates, seed, order, prefs, h)
        # FormationGraph construction re-validates the tree structure
        assert max(graph.depth) <= h
        verify_formation(rates, graph, order, prefs, h)
        again = estimate_graph(topo, rates, seed, order, prefs, h)
        assert again == graph


def test_monotone_acceptance_at_seed():
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(200):
        k = int(rng.integers(3, 7))
        topo = _random_instance(rng, k)
        rates = rate_table(topo)
        prefs = build_preferences(topo, rates)
        seed = int(rng.integers(k))
        order = ProposalOrder(tuple(x for x in range(k) if x != seed))
        graph = estimate_graph(topo, rates, seed, order, prefs, 4)
        unconnected = [x for x in range(k) if not graph.connected[x]]
        if not unconnected:
            continue
        found += 1
        mu = unconnected[0]
        # raise the seed link of the rejected MU above the seed's rate
        gsr = np.array(topo.gain_sr)
        gsr[seed, mu] = gsr[mu, seed] = 1e-6
        boosted = gain_topology(topo.gain_lr, gsr, radio=topo.radio)
        rates2 = rate_table(boosted)
        assert rates2.sr_rate[seed, mu] >= rates2.lr_rate[seed]
        graph2 = estimate_graph(boosted, rates2, seed, order,
                                build_preferences(boosted, rates2), 4)
        assert graph2.connected[mu]
        if found >= 10:
            break
    assert found >= 5


def test_full_connection_when_sr_dominates():
    topo = topo_for([1e-13] * 5,
                    {(i, j): 1e-10 * (1 + i + j) for i in range(5)
                     for j in range(i + 1, 5)})
    rates = rate_table(topo)
    prefs = build_preferences(topo, rates)
    graph = estimate_graph(topo, rates, 2, ProposalOrder((0, 1, 3, 4)), prefs, 4)
    assert all(graph.connected)


def test_from_parents_detects_cycle():
    with pytest.raises(ValueError):
        FormationGraph.from_parents(0, [None, 2, 1])


def test_formation_graph_validation():
    with pytest.raises(ValueError):
        FormationGraph(seed=0, parent=(None, None), children=((1,), ()),
                       depth=(0, 1), connected=(True, True))
