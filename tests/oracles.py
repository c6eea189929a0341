"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own computation paths:
rates are summed subcarrier by subcarrier, LPs are solved by enumerating
candidate vertices and extreme rays, cooperation thresholds by bisection on
partial sums of the repeated-game cost series, and optimal trees by raw
parent-vector enumeration.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# --- channel ----------------------------------------------------------------


def lr_rate_subcarrier_sum(gain: float, radio) -> float:
    """Cellular rate as an explicit sum over every subcarrier."""
    total = 0.0
    for _ in range(radio.rb_count * radio.subcarriers_per_rb):
        signal = radio.bs_power_per_subcarrier * gain
        sinr = radio.snr_gap * signal / (
            radio.noise_power + radio.interference_fraction * signal)
        total += radio.subcarrier_bandwidth * math.log2(1.0 + sinr)
    return total


def sr_rate_subcarrier_sum(gain: float, radio) -> float:
    total = 0.0
    for _ in range(radio.rb_count * radio.subcarriers_per_rb):
        signal = radio.sr_power_per_subcarrier * gain
        sinr = signal / (
            radio.interference_fraction * signal + radio.noise_power)
        total += radio.subcarrier_bandwidth * math.log2(1.0 + sinr)
    return total


# --- linear programming -------------------------------------------------------


def solve_lp_by_enumeration(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None,
                            tol=1e-9):
    """Solve min c@x s.t. a_eq@x=b_eq, a_ub@x<=b_ub, x>=0 by enumerating
    candidate vertices (n-subsets of constraint rows) and extreme-ray
    directions ((n-1)-subsets). Returns (status, objective or None).
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))

    rows = [(a_eq[i], b_eq[i]) for i in range(a_eq.shape[0])]
    rows += [(a_ub[i], b_ub[i]) for i in range(a_ub.shape[0])]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, 0.0))

    def feasible(x):
        if np.any(x < -tol):
            return False
        if a_eq.shape[0] and np.any(np.abs(a_eq @ x - b_eq) > tol):
            return False
        if a_ub.shape[0] and np.any(a_ub @ x - b_ub > tol):
            return False
        return True

    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        mat = np.array([rows[i][0] for i in subset])
        rhs = np.array([rows[i][1] for i in subset])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, rhs)
        if feasible(x):
            val = float(c @ x)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", None

    # unbounded iff some extreme-ray direction is feasible and improving
    for subset in itertools.combinations(range(len(rows)), n - 1):
        mat = np.array([rows[i][0] for i in subset]).reshape(len(subset), n)
        if mat.shape[0]:
            _, svals, vh = np.linalg.svd(mat)
            rank = int((svals > 1e-10).sum())
            null_basis = vh[rank:]
        else:
            null_basis = np.eye(n)
        for d in null_basis:
            for sign in (1.0, -1.0):
                ray = sign * d
                if np.any(ray < -tol):
                    continue
                if np.max(np.abs(ray)) < 1e-9:
                    continue
                if a_eq.shape[0] and np.any(np.abs(a_eq @ ray) > tol):
                    continue
                if a_ub.shape[0] and np.any(a_ub @ ray > tol):
                    continue
                if c @ ray < -tol:
                    return "unbounded", None
    return "optimal", best


def random_lp(rng):
    """Small random integer-coefficient LP; returns kwargs for both the
    library solver and the enumeration oracle."""
    n = int(rng.integers(1, 5))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(0, 5))
    if m_eq + m_ub > 6:
        m_ub = 6 - m_eq

    def mat(m):
        return rng.integers(-4, 5, size=(m, n)).astype(float)

    return dict(
        objective=rng.integers(-4, 5, size=n).astype(float),
        a_eq=mat(m_eq), b_eq=rng.integers(-3, 7, size=m_eq).astype(float),
        a_ub=mat(m_ub), b_ub=rng.integers(-3, 7, size=m_ub).astype(float),
    )


# --- repeated game ------------------------------------------------------------


def deviation_sign(p, e_coop, e_base, e_dev, term_tol=1e-12, cap=2_000_000):
    """Sign of cost(deviate once, then alone forever) - cost(cooperate
    forever) at continuation probability p, via partial sums (terms below
    term_tol stop the sum; a geometric bound closes the tail)."""
    gap = e_base - e_coop
    s = e_dev - e_coop
    if gap <= 0.0 or p <= 0.0:
        return 1 if s > term_tol else (-1 if s < -term_tol else 0)
    done = 0
    start = p  # p ** (done + 1)
    block = 4096
    last = gap * start
    while done < cap:
        m = min(block, cap - done)
        terms = gap * start * np.power(p, np.arange(m))
        s += float(terms.sum())
        if s > term_tol:
            return 1
        last = float(terms[-1])
        start *= p ** m
        done += m
        if last < term_tol:
            break
    tail = gap * start / (1.0 - p) if p < 1.0 else float("inf")
    if s > term_tol:
        return 1
    if s + tail < -term_tol:
        return -1
    return 0


def cev_bisection(e_coop, e_base, e_dev, tol=1e-10):
    """Smallest continuation probability making cooperation weakly cheaper,
    found by bisection on the partial-sum cost comparison."""
    gap = e_base - e_coop
    if gap <= 1e-10 * max(1.0, e_base):
        # cooperating never strictly beats deviating
        return 1.0
    hi = 1.0 - 1e-12
    if deviation_sign(hi, e_coop, e_base, e_dev) < 0:
        return 1.0
    lo = 0.0
    if deviation_sign(lo, e_coop, e_base, e_dev) >= 0:
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        sign = deviation_sign(mid, e_coop, e_base, e_dev)
        if sign >= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def discounted_payoff(p: float, per_slot_energy: float) -> float:
    """Total discounted payoff of repeating one slot forever with
    continuation probability ``p`` (closed form of the geometric series)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("continuation probability must lie in [0, 1)")
    return -per_slot_energy / (1.0 - p)


def discounted_partial_sum(p, per_slot_energy, term_tol=1e-12):
    total = 0.0
    weight = 1.0
    while True:
        term = weight * per_slot_energy
        total += term
        if term < term_tol or weight < 1e-18:
            return -total
        weight *= p


# --- formation replay -----------------------------------------------------------


def verify_formation(rates, graph, order, prefs, max_hops):
    """Post-hoc check that a formed tree is exactly what the sequential
    proposal walk must produce: membership timing, acceptance inequalities,
    and rejection of every higher-preference member. Raises AssertionError.
    """
    seed = graph.seed
    k = len(graph.parent)
    turn = {mu: pos for pos, mu in enumerate(order.order)}

    def feed(node):
        if node == seed:
            return rates.lr_rate[seed]
        return rates.sr_rate[graph.parent[node], node]

    def member_before(j, i):
        # j must be in the accepted set when i proposes
        if j == seed:
            return True
        return graph.connected[j] and turn[j] < turn[i]

    for i in order.order:
        eligible = [j for j in prefs.prefs[i]
                    if member_before(j, i) and graph.depth[j] < max_hops]
        if graph.connected[i]:
            p = graph.parent[i]
            assert p is not None and member_before(p, i), f"MU {i} parent timing"
            assert graph.depth[p] < max_hops, f"MU {i} parent depth"
            assert rates.sr_rate[p, i] >= feed(p), f"MU {i} acceptance condition"
            for j in eligible:
                if j == p:
                    break
                assert rates.sr_rate[j, i] < feed(j), \
                    f"MU {i} skipped an accepting member {j}"
        else:
            for j in eligible:
                assert rates.sr_rate[j, i] < feed(j), \
                    f"unconnected MU {i} had an accepting member {j}"


# --- scheduling grid ----------------------------------------------------------


def simplex_grid(k, step=0.01):
    """All length-k fraction vectors with entries on a step grid summing
    to 1 (stars and bars)."""
    m = round(1.0 / step)
    points = []
    for bars in itertools.combinations(range(m + k - 1), k - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(m + k - 2 - prev)
        points.append([cnt / m for cnt in counts])
    return np.array(points)


# --- tree enumeration ----------------------------------------------------------


def brute_force_optimal(rates_lr, rates_sr, max_hops, constants, k):
    """Minimum total energy over every (seed, member subset, rooted tree)
    configuration plus the everyone-alone option; raw parent-vector
    enumeration, independent of the library's table machinery.

    Returns (energy, description)."""
    alone = constants.p_rx_lr * constants.slot_duration
    best = alone * k
    best_desc = "alone"
    for seed in range(k):
        others = [x for x in range(k) if x != seed]
        for size in range(1, k):
            for members in itertools.combinations(others, size):
                nodes = (seed,) + members
                for parents in itertools.product(nodes, repeat=size):
                    # parents[i] feeds members[i]
                    if any(parents[i] == members[i] for i in range(size)):
                        continue
                    depth = {seed: 0}
                    ok = True
                    for _ in range(size):
                        progressed = False
                        for i in range(size):
                            node = members[i]
                            if node in depth:
                                continue
                            if parents[i] in depth:
                                depth[node] = depth[parents[i]] + 1
                                progressed = True
                        if not progressed:
                            break
                    if len(depth) != size + 1:
                        continue
                    if max(depth.values()) > max_hops:
                        continue
                    feed = {seed: rates_lr[seed]}
                    for i in sorted(range(size), key=lambda i: depth[members[i]]):
                        feed[members[i]] = rates_sr[parents[i]][members[i]]
                    for i in range(size):
                        if rates_sr[parents[i]][members[i]] < feed[parents[i]]:
                            ok = False
                            break
                    if not ok:
                        continue
                    has_child = set(parents)
                    t = constants.slot_duration
                    energy = (constants.p_rx_lr + constants.p_tx_sr) * t
                    for node in members:
                        if node in has_child:
                            energy += (constants.p_rx_sr + constants.p_tx_sr) * t
                        else:
                            energy += constants.p_rx_sr * t
                    energy += alone * (k - size - 1)
                    if energy < best - 1e-12:
                        best = energy
                        best_desc = f"seed={seed} members={members} parents={parents}"
    return best, best_desc


@functools.lru_cache(maxsize=None)
def rooted_tree_table(k):
    """All k^(k-2) labeled trees on k >= 2 nodes rooted at node 0, in Prüfer
    order: (parents, max_depth, relay_count) with parents[n, x] the parent
    of node x in tree n (node 0 maps to itself)."""
    from d2dlan.scenarios import _prufer_decode

    n_trees = k ** (k - 2)
    parents = np.zeros((n_trees, k), dtype=np.int16)
    max_depth = np.zeros(n_trees, dtype=np.int16)
    relay_count = np.zeros(n_trees, dtype=np.int16)
    for n, seq in enumerate(itertools.product(range(k), repeat=k - 2)):
        adj = [[] for _ in range(k)]
        for a, b in _prufer_decode(seq, k):
            adj[a].append(b)
            adj[b].append(a)
        parent = [0] * k
        depth = [0] * k
        stack = [0]
        seen = [False] * k
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
        relay_count[n] = len({parent[x] for x in range(1, k)} - {0})
    return parents, max_depth, relay_count


def exhaustive_exact_graph(topology, rates, config):
    """The exact planner as a scan of every tree of every size, with no
    shortcut: the minimum over (energy, -seed cellular rate, seed, size,
    member subset in combination order, Prüfer index), or None when that
    energy does not beat everyone downloading alone. It shares the library's
    Prüfer decoder and class-energy expression, so that float ties resolve
    as in the library; brute_force_optimal is the independent check."""
    from d2dlan import FormationGraph
    from d2dlan.scenarios import _tree_energy

    k = topology.mu_count
    constants = config.power
    alone = constants.p_rx_lr * constants.slot_duration
    best_key = None
    best_spec = None
    for seed in range(k):
        r_seed = float(rates.lr_rate[seed])
        others = tuple(x for x in range(k) if x != seed)
        for size in range(2, k + 1):
            parents, max_depth, relay_count = rooted_tree_table(size)
            depth_ok = max_depth <= config.max_hops
            base_energy = _tree_energy(relay_count.astype(float), size,
                                       constants) + alone * (k - size)
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
                idx = np.nonzero(ok.all(axis=1) & depth_ok)[0]
                if idx.size == 0:
                    continue
                local = idx[int(np.argmin(base_energy[idx]))]
                key = (float(base_energy[local]), -r_seed, seed)
                if best_key is None or key < best_key:
                    best_key = key
                    best_spec = (seed, members, parents[local])
    if best_spec is None or best_key[0] >= alone * k - 1e-12:
        return None
    seed, members, canon = best_spec
    parent_list = [None] * k
    for x in range(1, len(members)):
        parent_list[int(members[x])] = int(members[canon[x]])
    return FormationGraph(seed, tuple(parent_list))
