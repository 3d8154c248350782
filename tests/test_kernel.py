"""The push kernel against a restart-from-scratch reference, and its invariances.

``ref_clear`` is the kernel as it was before it kept its dead marks and its
walk across pushes: after every push it forgets which nodes are dead and
walks again from the first start node. It is slow (quadratic on long
rings) but plainly correct, and the fast kernel must reproduce its assets
and flows exactly.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from finclear import (
    EdgeRankingStrategy,
    FinancialNetwork,
    StrategyProfile,
    ThresholdRankingStrategy,
    top_cycle_increase,
)
from finclear.clearing import clear_circulation, compile_schedule
from finclear.core import (
    ClearingState,
    FlowAssignment,
    InconsistentStateError,
    build_circulation_network,
    node_key,
)
from finclear.strategies import payment_segments
from _reference import ReferenceNetwork, reference_circulation
from _samplers import random_profile, with_external


def ref_clear(net, profile, cycle_rng=None) -> ClearingState:
    circ = reference_circulation(net)
    base = circ.base
    order = sorted(circ.nodes, key=node_key)
    node_index = {v: i for i, v in enumerate(order)}
    n = len(order)
    edge_dst, edge_pos = [], {}
    for e in circ.edges:
        edge_pos[e.id] = len(edge_dst)
        edge_dst.append(node_index[e.dst])
    flows = [0] * len(edge_dst)
    schedules = [[] for _ in range(n)]
    for v in net.nodes:
        segs = []
        if base.out_edges(v):
            for e_id, length in payment_segments(profile.strategy_for(v), net):
                segs.append((edge_pos[e_id], length))
        segs.append((edge_pos[circ.surplus_edge(v).id], None))
        schedules[node_index[v]] = segs
    schedules[node_index[circ.source]] = [
        (edge_pos[e.id], e.weight)
        for e in sorted(circ.source_out, key=lambda e: node_key(e.dst))
    ]
    seg_at, seg_rem, active_edge, active_to = [0] * n, [None] * n, [-1] * n, [-1] * n
    for i in range(n):
        if schedules[i]:
            active_edge[i], seg_rem[i] = schedules[i][0]
            active_to[i] = edge_dst[active_edge[i]]
    while True:
        dead = [False] * n
        starts = list(range(n))
        if cycle_rng is not None:
            cycle_rng.shuffle(starts)
        cycle = None
        for start in starts:
            if dead[start] or active_to[start] < 0:
                continue
            path, on_path, u = [], {}, start
            while True:
                if active_to[u] < 0 or dead[u]:
                    for w in path + [u]:
                        dead[w] = True
                    break
                if u in on_path:
                    cycle = path[on_path[u]:]
                    break
                on_path[u] = len(path)
                path.append(u)
                u = active_to[u]
            if cycle is not None:
                break
        if cycle is None:
            break
        delta = min(seg_rem[u] for u in cycle if seg_rem[u] is not None)
        if delta <= 0:
            raise InconsistentStateError(f"cycle push of size {delta}")
        for u in cycle:
            flows[active_edge[u]] += delta
            if seg_rem[u] is None:
                continue
            seg_rem[u] -= delta
            if seg_rem[u] == 0:
                seg_at[u] += 1
                if seg_at[u] < len(schedules[u]):
                    active_edge[u], seg_rem[u] = schedules[u][seg_at[u]]
                    active_to[u] = edge_dst[active_edge[u]]
                else:
                    seg_rem[u], active_edge[u], active_to[u] = None, -1, -1
    edge_flows = {e.id: flows[edge_pos[e.id]] for e in base.edges}
    internal = {v: 0 for v in net.nodes}
    for e in base.edges:
        internal[e.dst] += edge_flows[e.id]
    assets = {v: net.external(v) + internal[v] for v in net.nodes}
    return ClearingState(assets, internal, FlowAssignment(edge_flows))


def kernel_net(rng: random.Random, max_firms: int = 60) -> FinancialNetwork:
    """Up to ``max_firms`` firms: one ring through a random subset of them
    (up to all), random extra edges, some of them parallel to earlier ones,
    about one in ten of weight 0, weights on a scale of 1 to 10^6, and
    externals on about half the firms."""
    n = rng.randint(2, max_firms)
    names = [f"n{i}" for i in range(n)]
    scale = rng.choice((1, 3, 1000, 10**6))

    def weight() -> int:
        return 0 if rng.random() < 0.1 else rng.randint(1, scale)

    ring = rng.sample(names, rng.randint(2, n))
    pairs = list(zip(ring, ring[1:] + ring[:1]))
    for _ in range(rng.randint(0, 2 * n)):
        if pairs and rng.random() < 0.2:
            pairs.append(rng.choice(pairs))
        else:
            pairs.append(tuple(rng.sample(names, 2)))
    edges = [(i, u, v, weight()) for i, (u, v) in enumerate(pairs)]
    externals = {v: rng.randint(0, scale) for v in names if rng.random() < 0.5}
    return FinancialNetwork.build(names, externals, edges)


def _instance(seed: int):
    rng = random.Random(seed)
    net = kernel_net(rng)
    return rng, net, random_profile(rng, net, threshold_p=rng.random())


def _state(cs: ClearingState) -> tuple[dict, dict]:
    return dict(cs.assets), dict(cs.flows.flow)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1) | st.none())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_restart_from_scratch_reference(seed, order_seed):
    _, net, profile = _instance(seed)
    cycle_rng = None if order_seed is None else random.Random(order_seed)
    expected = _state(ref_clear(net, profile))
    assert _state(top_cycle_increase(net, profile, cycle_rng=cycle_rng)) == expected


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1) | st.none(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_every_slot_of_the_kernel_vector_is_a_clearing_circulation(seed, order_seed, shuffle_seed):
    """The whole vector ``clear_circulation`` returns, surplus and source
    slots included: flow is conserved at every node, the source too; each
    funded source slot carries its firm's external; each node pays its
    schedule in order, every segment before its last paid one full (a
    greedy refill of its outflow gives every slot); and a shuffled start
    order returns the same vector."""
    _, net, profile = _instance(seed)
    circ = build_circulation_network(net)
    schedules = [compile_schedule(circ, v, profile.strategy_for(v)) for v in circ.nodes]
    cycle_rng = None if order_seed is None else random.Random(order_seed)
    flows = clear_circulation(circ, schedules, circ.external, cycle_rng=cycle_rng)
    shuffled = clear_circulation(
        circ, schedules, circ.external, cycle_rng=random.Random(shuffle_seed)
    )
    assert shuffled == flows
    m, s = len(circ.slot), circ.index[circ.source]
    assert len(flows) == m + 2 * len(circ.nodes)

    balance = [0] * len(circ.nodes)
    for u, v, f in zip(circ.src, circ.dst, flows):
        balance[u] -= f
        balance[v] += f
    assert balance == [0] * len(circ.nodes)

    assert flows[m + 1 :: 2] == circ.external
    schedules[s] = [(m + 2 * i + 1, x) for i, x in enumerate(circ.external) if x > 0]
    unscheduled = set(range(len(flows)))
    for schedule in schedules:
        paid = dict.fromkeys((slot for slot, _ in schedule), 0)
        total = sum(flows[slot] for slot in paid)
        for slot, length in schedule:
            x = min(length, total)
            paid[slot] += x
            total -= x
        assert total == 0
        assert paid == {slot: flows[slot] for slot in paid}
        unscheduled -= paid.keys()
    assert all(flows[slot] == 0 for slot in unscheduled)


def _relabel(rng, net, profile):
    """The same game under fresh node names and edge ids; returns it and the
    two renaming maps."""
    fresh = rng.sample(range(10 * len(net.nodes)), len(net.nodes))
    name = {v: f"x{k}" for v, k in zip(net.nodes, fresh)}
    edges = ReferenceNetwork.of(net).edges
    ids = rng.sample(range(10 * len(edges) + 1), len(edges))
    eid = {e.id: k for e, k in zip(edges, ids)}
    relabelled = FinancialNetwork.build(
        name.values(),
        {name[v]: x for v, x in net.external_assets.items()},
        [(eid[e.id], name[e.src], name[e.dst], e.weight) for e in edges],
    )
    strategies = []
    for v, s in profile.strategies.items():
        ranking = tuple(eid[i] for i in s.ranking)
        if isinstance(s, ThresholdRankingStrategy):
            taus = {eid[i]: t for i, t in s.thresholds}
            strategies.append(ThresholdRankingStrategy.of(name[v], ranking, taus))
        else:
            strategies.append(EdgeRankingStrategy(name[v], ranking))
    return relabelled, StrategyProfile.of(strategies), name, eid


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_relabelling_nodes_and_edges_leaves_the_state_unchanged(seed):
    rng, net, profile = _instance(seed)
    base = top_cycle_increase(net, profile)
    relabelled, mapped, name, eid = _relabel(rng, net, profile)
    after = top_cycle_increase(relabelled, mapped)
    assert {v: after.assets[name[v]] for v in net.nodes} == base.assets
    assert {e: after.flows.get(eid[e]) for e in net.ids} == base.flows.flow


@given(st.integers(0, 2**32 - 1), st.integers(2, 1000))
@settings(max_examples=60, deadline=None)
def test_scaling_every_amount_by_k_scales_the_state_by_k(seed, k):
    _, net, profile = _instance(seed)
    base = top_cycle_increase(net, profile)
    scaled = FinancialNetwork.build(
        net.nodes,
        {v: k * x for v, x in net.external_assets.items()},
        [(e.id, e.src, e.dst, k * e.weight) for e in ReferenceNetwork.of(net).edges],
    )
    strategies = [
        ThresholdRankingStrategy.of(s.owner, s.ranking, {i: k * t for i, t in s.thresholds})
        if isinstance(s, ThresholdRankingStrategy)
        else s
        for s in profile.strategies.values()
    ]
    after = top_cycle_increase(scaled, StrategyProfile.of(strategies))
    assert after.assets == {v: k * a for v, a in base.assets.items()}
    assert after.flows.flow == {i: k * f for i, f in base.flows.flow.items()}


@given(st.integers(0, 2**32 - 1), st.integers(1, 10**6))
@settings(max_examples=60, deadline=None)
def test_raising_one_firms_externals_never_lowers_any_firms_assets(seed, extra):
    rng, net, profile = _instance(seed)
    base = top_cycle_increase(net, profile)
    v = rng.choice(net.nodes)
    richer = with_external(net, v, net.external(v) + extra)
    after = top_cycle_increase(richer, profile)
    assert all(after.assets[u] >= base.assets[u] for u in net.nodes)
