"""Differential tests of the feasible flow against the pure-Python Dinic."""

import numpy as np
import pytest

from circlepatterns.feasibility import FlowNetwork, FlowStats, solve_feasible_flow
from oracles import feasible_flow_dinic


def _network(n, tail, head, lower, upper):
    return FlowNetwork(n_nodes=n, box=n - 1, tail=np.asarray(tail),
                       head=np.asarray(head), lower=np.asarray(lower, dtype=float),
                       upper=np.asarray(upper, dtype=float))


def _random_arcs(rng, n, m):
    tail = rng.integers(0, n, m)
    head = (tail + rng.integers(1, n, m)) % n
    return tail, head


def random_float_network(rng):
    """Bounds spanning 1e-12 to 1e3.  Half of the networks carry a random
    circulation inside their bounds, so they are feasible by construction;
    the other half have random bounds and are mostly infeasible."""
    n = int(rng.integers(3, 9))
    m = int(rng.integers(n, 4 * n))
    tail, head = _random_arcs(rng, n, m)
    # a parallel and an antiparallel copy of the first arc
    tail = np.r_[tail, tail[0], head[0]]
    head = np.r_[head, head[0], tail[0]]
    m += 2
    size = 10.0 ** rng.uniform(-12, 3, m)
    if rng.random() < 0.5:
        flow = np.zeros(m)
        for _ in range(int(rng.integers(1, 5))):
            cycle = rng.permutation(n)[:int(rng.integers(2, n + 1))]
            amount = 10.0 ** rng.uniform(-12, 3)
            for u, v in zip(cycle, np.roll(cycle, -1)):
                tail = np.r_[tail, u]
                head = np.r_[head, v]
                flow = np.r_[flow, amount]
        m = len(flow)
        size = np.r_[size, 10.0 ** rng.uniform(-12, 3, m - len(size))]
        lower = flow * rng.uniform(0.0, 1.0, m)
        upper = np.where(rng.random(m) < 0.3, np.inf, flow + size)
    else:
        lower = np.where(rng.random(m) < 0.5, 0.0, size)
        upper = np.where(rng.random(m) < 0.3, np.inf,
                         lower + 10.0 ** rng.uniform(-12, 3, m))
    return _network(n, tail, head, lower, upper)


def random_integer_network(rng):
    n = int(rng.integers(3, 9))
    m = int(rng.integers(n, 4 * n))
    tail, head = _random_arcs(rng, n, m)
    lower = rng.integers(0, 4, m).astype(float)
    upper = np.where(rng.random(m) < 0.3, np.inf, lower + rng.integers(0, 5, m))
    return _network(n, tail, head, lower, upper)


def _check_against_oracle(net):
    stats = FlowStats()
    flows, cut = solve_feasible_flow(net, stats=stats)
    ref_flows, ref_cut, ref_pushed, demand = feasible_flow_dinic(net)
    assert (flows is None) == (ref_flows is None)
    tol = 1e-13 * max(1.0, demand)
    # the oracle leaves arcs of capacity at most tol unused
    assert abs(stats.pushed - ref_pushed) <= 4 * len(net.tail) * tol
    assert stats.pushed + stats.shortfall == pytest.approx(demand, rel=1e-12, abs=tol)
    if flows is None:
        assert cut is not None
        return stats, cut, ref_cut
    slack = 1e-10 * max(1.0, demand) + tol
    assert np.all(flows >= net.lower - slack)
    assert np.all(flows <= net.upper + slack)
    balance = (np.bincount(net.head, flows, minlength=net.n_nodes)
               - np.bincount(net.tail, flows, minlength=net.n_nodes))
    assert np.abs(balance).max() <= slack
    return stats, cut, ref_cut


def test_matches_oracle_on_random_float_networks():
    rng = np.random.default_rng(200)
    verdicts = []
    for _ in range(150):
        stats, cut, _ = _check_against_oracle(random_float_network(rng))
        verdicts.append(cut is None)
    assert 30 < sum(verdicts) < 120  # both verdicts are exercised


def test_cut_matches_oracle_on_infeasible_integer_networks():
    rng = np.random.default_rng(201)
    infeasible = 0
    for _ in range(150):
        _, cut, ref_cut = _check_against_oracle(random_integer_network(rng))
        if cut is not None:
            # the source side of the residual graph is the same for every
            # maximum flow
            assert cut == ref_cut
            infeasible += 1
    assert infeasible > 30


@pytest.mark.parametrize("demand, feasible", [(5e9, True), (8e9, False)])
def test_capacities_beyond_int32(demand, feasible):
    # node 1 must pass ``demand`` on to node 0 through 2 and 3, which take
    # 4e9 and 3e9: every bound overflows int32 unscaled
    net = _network(4, [0, 1, 1, 2, 3], [1, 2, 3, 0, 0],
                   [demand, 0.0, 0.0, 0.0, 0.0],
                   [1e10, 4e9, 3e9, np.inf, np.inf])
    stats, cut, ref_cut = _check_against_oracle(net)
    assert (cut is None) == feasible
    if not feasible:
        assert cut == ref_cut == {1}
        assert stats.shortfall == pytest.approx(demand - 7e9)


def test_summed_capacity_beyond_int32_raises():
    # parallel arcs of unbounded capacity: each is capped at the demand of
    # 1.0, which is 2**27 units, and 16 of them sum to 2**31
    n_parallel = 16
    net = _network(2, [0] * n_parallel + [1], [1] * n_parallel + [0],
                   [0.0] * n_parallel + [1.0], [np.inf] * (n_parallel + 1))
    with pytest.raises(OverflowError):
        solve_feasible_flow(net)


def test_rounds_are_counted():
    stats = FlowStats()
    net = _network(3, [0, 1, 2], [1, 2, 0], [1.0, 0.0, 0.0], [np.inf] * 3)
    flows, cut = solve_feasible_flow(net, stats=stats)
    assert cut is None and np.allclose(flows, 1.0)
    assert stats.rounds == 1 and stats.shortfall == 0.0 and stats.pushed == 1.0
