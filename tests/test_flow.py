"""Differential tests of the feasible flow against the pure-Python Dinic."""

import numpy as np
import pytest

from circlepatterns import feasibility, meshes
from circlepatterns.feasibility import (FlowNetwork, _ResidualNetwork, build_flow_network,
                                        solve_feasible_flow)
from circlepatterns.functional import EUCLIDEAN, HYPERBOLIC
from circlepatterns.surface import medial
from helpers import random_feasible_spec
from oracles import feasible_flow_dinic, residual_layout_reference


def _network(n, tail, head, lower, upper):
    return FlowNetwork(n_nodes=n, tail=np.asarray(tail),
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


def _nodes(cut):
    """The node set of a cut mask, as the oracle gives it."""
    return set(np.flatnonzero(cut).tolist())


def _same_cut(a, b):
    return (a is None) == (b is None) and (a is None or np.array_equal(a, b))


def _check_against_oracle(net):
    result = solve_feasible_flow(net)
    flows, cut = result.flows, result.cut
    ref_flows, ref_cut, ref_pushed, demand = feasible_flow_dinic(net)
    assert (flows is None) == (ref_flows is None)
    tol = 1e-13 * max(1.0, demand)
    # the oracle leaves arcs of capacity at most tol unused
    assert abs(result.pushed - ref_pushed) <= 4 * len(net.tail) * tol
    assert result.pushed + result.shortfall == pytest.approx(demand, rel=1e-12, abs=tol)
    if flows is None:
        assert cut.dtype == bool and cut.shape == (net.n_nodes,)
        return result, ref_cut
    slack = 1e-10 * max(1.0, demand) + tol
    assert np.all(flows >= net.lower - slack)
    assert np.all(flows <= net.upper + slack)
    balance = (np.bincount(net.head, flows, minlength=net.n_nodes)
               - np.bincount(net.tail, flows, minlength=net.n_nodes))
    assert np.abs(balance).max() <= slack
    return result, ref_cut


def test_matches_oracle_on_random_float_networks():
    rng = np.random.default_rng(200)
    verdicts = []
    for _ in range(150):
        result, _ = _check_against_oracle(random_float_network(rng))
        verdicts.append(result.cut is None)
    assert 30 < sum(verdicts) < 120  # both verdicts are exercised


def test_cut_matches_oracle_on_infeasible_integer_networks():
    rng = np.random.default_rng(201)
    infeasible = 0
    for _ in range(150):
        result, ref_cut = _check_against_oracle(random_integer_network(rng))
        if result.cut is not None:
            # the source side of the residual graph is the same for every
            # maximum flow
            assert _nodes(result.cut) == ref_cut
            infeasible += 1
    assert infeasible > 30


@pytest.mark.parametrize("demand, feasible", [(5e9, True), (8e9, False)])
def test_capacities_beyond_int32(demand, feasible):
    # node 1 must pass ``demand`` on to node 0 through 2 and 3, which take
    # 4e9 and 3e9: every bound overflows int32 unscaled
    net = _network(4, [0, 1, 1, 2, 3], [1, 2, 3, 0, 0],
                   [demand, 0.0, 0.0, 0.0, 0.0],
                   [1e10, 4e9, 3e9, np.inf, np.inf])
    result, ref_cut = _check_against_oracle(net)
    assert (result.cut is None) == feasible
    if not feasible:
        assert _nodes(result.cut) == ref_cut == {1}
        assert result.shortfall == pytest.approx(demand - 7e9)


def test_summed_capacity_beyond_int32_raises():
    # 16 parallel arcs of unbounded capacity and the reverse of the fixed
    # arc make 17 residual arcs on each node pair: the rounds scale to
    # fewer than 2**26 units, so their sum fits int32 and the flow solves
    n_parallel = 16
    net = _network(2, [0] * n_parallel + [1], [1] * n_parallel + [0],
                   [0.0] * n_parallel + [1.0], [np.inf] * (n_parallel + 1))
    result, _ = _check_against_oracle(net)
    assert result.flows is not None and result.cut is None
    # at 2**27 units each, as 28 round bits would give, the 16 parallel
    # arcs sum to 2**31, which the guard refuses
    residual_net = _ResidualNetwork(net.tail, net.head, net.n_nodes)
    assert residual_net.round_bits == 26
    with pytest.raises(OverflowError):
        residual_net.augment(np.ones(2 * len(net.tail)), 0, 1, 1.0, 2.0 ** -27)


def test_rounds_are_counted():
    net = _network(3, [0, 1, 2], [1, 2, 0], [1.0, 0.0, 0.0], [np.inf] * 3)
    result = solve_feasible_flow(net)
    assert result.cut is None and np.allclose(result.flows, 1.0)
    assert result.rounds == 1 and result.shortfall == 0.0 and result.pushed == 1.0


def test_accept_hook_stops_the_rounds():
    # the hook sees every round's branch flows; a hook that returns None
    # changes nothing, and the first other value ends the flow at its round
    rng = np.random.default_rng(17)
    for _ in range(60):
        net = random_float_network(rng)
        plain = solve_feasible_flow(net)
        rounds_seen = []
        never = solve_feasible_flow(net, accept=lambda flows: rounds_seen.append(flows.copy()))
        assert (never.rounds, never.shortfall, never.accepted) == \
            (plain.rounds, plain.shortfall, None)
        assert _same_cut(never.cut, plain.cut)
        assert (never.flows is None) == (plain.flows is None)
        if plain.flows is not None:
            assert np.array_equal(never.flows, plain.flows)
            assert np.array_equal(rounds_seen[-1], plain.flows)
        calls = []
        stopped = solve_feasible_flow(net, accept=lambda flows: calls.append(flows) or "stop")
        if rounds_seen:
            # stopped at the first round that sent flow
            assert len(calls) == 1 and np.array_equal(calls[0], rounds_seen[0])
            assert (stopped.accepted, stopped.flows, stopped.cut) == ("stop", None, None)
            assert stopped.rounds <= plain.rounds
            assert stopped.shortfall == pytest.approx(
                plain.shortfall + plain.pushed - stopped.pushed)


def _accept_at(call, seen):
    """A hook that keeps a copy of the branch flows of every call in
    ``seen`` and accepts those of its ``call``-th call."""
    def accept(flows):
        seen.append(flows.copy())
        return flows.copy() if len(seen) == call else None
    return accept


def test_a_flow_stops_only_short_of_its_demand():
    # with need_cut=False the rounds stop once one proves the demand out of
    # reach: they are the first rounds of the run to the cut, bit for bit,
    # and that run does not meet the demand; an unstopped run is that run
    rng = np.random.default_rng(202)
    stopped = {"integer": 0, "float": 0, "accepted after the stop": 0}
    for _ in range(100):
        for kind, net in (("integer", random_integer_network(rng)),
                          ("float", random_float_network(rng))):
            for call in (0, 2):
                seen_whole, seen_first = [], []
                whole = solve_feasible_flow(net, accept=_accept_at(call, seen_whole))
                first = solve_feasible_flow(net, accept=_accept_at(call, seen_first),
                                            need_cut=False)
                for a, b in zip(seen_first, seen_whole):
                    assert np.array_equal(a, b)
                if first.stopped:
                    assert (first.flows, first.cut, first.accepted) == (None, None, None)
                    assert first.rounds <= whole.rounds and whole.flows is None
                    assert len(seen_first) <= len(seen_whole)
                    stopped[kind] += 1
                    stopped["accepted after the stop"] += whole.accepted is not None
                    continue
                assert (first.rounds, first.pushed, first.shortfall) == \
                    (whole.rounds, whole.pushed, whole.shortfall)
                assert _same_cut(first.cut, whole.cut)
                for a, b in ((first.flows, whole.flows), (first.accepted, whole.accepted)):
                    assert (a is None) == (b is None)
                    assert a is None or np.array_equal(a, b)
                assert np.array_equal(first.residual, whole.residual)
    assert min(stopped.values()) >= 20, stopped


@pytest.mark.parametrize("bounded", [True, False])
def test_first_round_level(monkeypatch, bounded):
    # nodes 2 and 3 each send 1.5 to nodes 0 and 1 over branches of at most
    # 1, while fixed branches take it back: the demand is 3, the largest
    # capacity 1.5.  With every arc bounded, round 1 runs at that capacity;
    # an unbounded arc keeps it at the demand
    from circlepatterns import feasibility
    levels = []
    augment = feasibility._ResidualNetwork.augment

    def spy(self, residual, s, t, level, unit):
        levels.append(level)
        return augment(self, residual, s, t, level, unit)

    monkeypatch.setattr(feasibility._ResidualNetwork, "augment", spy)
    net = _network(4, [0, 1, 2, 2, 3, 3], [2, 3, 0, 1, 0, 1],
                   [1.5, 1.5, 0.0, 0.0, 0.0, 0.0],
                   [1.5, 1.5, 1.0, 1.0, 1.0, 1.0 if bounded else np.inf])
    result, _ = _check_against_oracle(net)
    assert result.flows is not None
    assert levels[0] == (1.5 if bounded else 3.0)


def _torus_networks():
    """The dual and the box network of medial(triangulated_torus(4, 4)),
    at eps = 0 and at the first floor."""
    rng = np.random.default_rng(203)
    surf = medial(meshes.triangulated_torus(4, 4))
    for geometry in (EUCLIDEAN, HYPERBOLIC):
        spec = random_feasible_spec(surf, geometry, rng)
        max_deg = int(np.diff(surf.walk_offsets).max())
        first_floor = min(spec.phi.min() / (4.0 * max_deg), spec.theta_star.min() / 4.0)
        for eps in (0.0, first_floor):
            yield build_flow_network(spec, eps)


def test_residual_layout_matches_reference(monkeypatch):
    # one stable sort lays out every residual network as np.unique and
    # searchsorted did, field by field: the networks the flow builds for
    # seeded float and integer networks, with their parallel and
    # antiparallel copies, and for the torus's dual and box networks
    built = []
    init = _ResidualNetwork.__init__

    def spy(self, tail, head, n_nodes):
        init(self, tail, head, n_nodes)
        built.append((self, tail, head, n_nodes))

    monkeypatch.setattr(_ResidualNetwork, "__init__", spy)
    rng = np.random.default_rng(204)
    nets = [random_float_network(rng) for _ in range(40)]
    nets += [random_integer_network(rng) for _ in range(40)]
    nets += list(_torus_networks())
    for net in nets:
        solve_feasible_flow(net)
    assert len(built) == len(nets)
    crowded = 0
    for layout, tail, head, n_nodes in built:
        ref = residual_layout_reference(tail, head, n_nodes)
        for name, value in ref.items():
            assert np.array_equal(getattr(layout, name), value), name
        assert layout.indices.dtype == layout.indptr.dtype == np.int32
        crowded += np.bincount(layout.pair).max() > 1
    # networks with one residual arc per node pair, and with several
    assert 20 < crowded < len(built)


def test_crossing_bounds_give_the_all_nodes_cut():
    # branch 1 must carry at least 2 and at most 1: no flow, and the cut
    # holds every node, with or without need_cut
    net = _network(3, [0, 1, 2], [1, 2, 0], [0.0, 2.0, 0.0], [np.inf, 1.0, np.inf])
    ref_flows, ref_cut, _, _ = feasible_flow_dinic(net)
    assert ref_flows is None and ref_cut == {0, 1, 2}
    for need_cut in (True, False):
        result = solve_feasible_flow(net, need_cut=need_cut)
        assert result.flows is None and result.shortfall == np.inf
        assert result.cut.dtype == bool and _nodes(result.cut) == ref_cut


def test_the_cut_is_read_on_demand(monkeypatch):
    # a failing flow searches its residual graph only when its cut is read,
    # and once
    searches = []
    bfs = feasibility.breadth_first_order
    monkeypatch.setattr(feasibility, "breadth_first_order",
                        lambda *args, **kwargs: searches.append(args) or bfs(*args, **kwargs))
    net = _network(3, [0, 1, 2], [1, 2, 0], [0.0, 2.0, 0.0], [np.inf, 3.0, 1.0])
    result = solve_feasible_flow(net)
    assert result.flows is None and searches == []
    assert _nodes(result.cut) == feasible_flow_dinic(net)[1]
    assert _nodes(result.cut) and len(searches) == 1
