"""Network construction, validation, and clearing-state bookkeeping."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from finclear import (
    UNBOUNDED,
    ClearingState,
    FinancialNetwork,
    LiabilityEdge,
    revenue,
    top_cycle_increase,
    validate_network,
)
from finclear.core import (
    ConservationError,
    FlowAssignment,
    InconsistentStateError,
    UnknownNodeError,
    build_circulation_network,
    check_clearing_consistency,
    check_conservation,
    decompose_circulation,
    node_key,
    sorted_nodes,
    total_liabilities,
)
from finclear.equilibria import max_value_circulation
from _reference import (
    ReferenceNetwork,
    reference_circulation,
    reference_conservation,
    reference_decompose,
)
from _samplers import random_profile, with_external


def extend_flows_to_circulation(circ, cs: ClearingState) -> FlowAssignment:
    """A clearing state's real-edge flows plus the auxiliary flows that make
    them conservative: every (s, v) edge saturated, each (v, s) edge
    carrying v's unspent assets."""
    full = dict(cs.flows.flow)
    for e in circ.source_out:
        full[e.id] = e.weight
    for e in circ.source_in:
        paid = sum(cs.flows.get(out.id) for out in circ.base.out_edges(e.src))
        full[e.id] = cs.assets.get(e.src, 0) - paid
    return FlowAssignment(full)


def recompose(decomp) -> FlowAssignment:
    """The flow a cycle decomposition stands for: each cycle's multiplicity
    on each of its edges."""
    flow: dict[int, int] = {}
    for cycle, mult in zip(decomp.cycles, decomp.multiplicity):
        for e in cycle:
            flow[e] = flow.get(e, 0) + mult
    return FlowAssignment(flow)


def chain_net() -> FinancialNetwork:
    return FinancialNetwork.build(
        ["a", "b", "c"],
        {"a": 2},
        [(0, "a", "b", 3), (1, "b", "c", 1)],
    )


def state_for(net: FinancialNetwork, flows: dict[int, int]) -> ClearingState:
    ref = ReferenceNetwork.of(net)
    full = {e.id: flows.get(e.id, 0) for e in ref.edges}
    internal = {
        v: sum(full[e.id] for e in ref.in_edges(v)) for v in net.nodes
    }
    assets = {v: net.external(v) + internal[v] for v in net.nodes}
    return ClearingState(
        assets=assets, internal_assets=internal, flows=FlowAssignment(full)
    )


class TestBuild:
    def test_missing_externals_fill_with_zero(self):
        net = chain_net()
        assert net.external("b") == 0
        assert net.external("c") == 0
        assert net.total_external() == 2

    def test_edges_sorted_by_id(self):
        net = FinancialNetwork.build(
            ["a", "b"], {}, [(5, "a", "b", 1), (2, "b", "a", 1)]
        )
        assert net.ids == (2, 5)
        assert [net.names[i] for i in net.src] == ["b", "a"]

    def test_nodes_sorted_shortlex(self):
        # "n2" before "n10": shorter ids come first, so numbered ids stay natural.
        net = FinancialNetwork.build(["n10", "n2", "x"], {}, [])
        assert net.nodes == ("x", "n2", "n10")

    def test_edge_tuples_and_objects_mix(self):
        net = FinancialNetwork.build(
            ["a", "b"], {}, [LiabilityEdge(0, "a", "b", 1), (1, "b", "a", 2)]
        )
        assert net.weights[net.slot[1]] == 2

    def test_out_ids_unknown_node_raises(self):
        with pytest.raises(UnknownNodeError):
            chain_net().out_ids("zz")

    def test_with_external_replaces_only_one_firm(self):
        net = with_external(chain_net(), "b", 7)
        assert net.external("b") == 7
        assert net.external("a") == 2

    def test_networks_with_different_dangling_targets_differ(self):
        one = FinancialNetwork.build(["a"], {}, [(0, "a", "x", 1)])
        other = FinancialNetwork.build(["a"], {}, [(0, "a", "y", 1)])
        assert one.dst == other.dst
        assert one != other
        assert one == FinancialNetwork.build(["a"], {}, [(0, "a", "x", 1)])

    def test_network_rejects_assignment(self):
        net = chain_net()
        assert validate_network(net).ok
        for name in ("weights", "nodes", "slot", "_report"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(net, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del net.weights
        assert all(type(col) is tuple for col in (net.ids, net.src, net.dst, net.weights))


class TestValidate:
    def test_valid_network_is_ok(self):
        assert validate_network(chain_net()).ok

    @pytest.mark.parametrize(
        "nodes,ext,edges,code",
        [
            (["a", "b"], {"a": -1}, [], "negative-external"),
            (["a"], {"ghost": 1}, [], "unknown-external-node"),
            (["a", "b"], {}, [(0, "a", "b", 1), (0, "b", "a", 1)], "duplicate-edge-id"),
            (["a"], {}, [(0, "a", "zz", 1)], "dangling-endpoint"),
            (["a"], {}, [(0, "a", "a", 1)], "self-loop"),
            (["a", "b"], {}, [(0, "a", "b", -2)], "negative-weight"),
            (["a", "b"], {}, [(0, "a", "b", UNBOUNDED)], "unbounded-weight"),
        ],
    )
    def test_violation_codes(self, nodes, ext, edges, code):
        report = validate_network(FinancialNetwork.build(nodes, ext, edges))
        assert code in {v.code for v in report.violations}


def test_unbounded_is_a_singleton_under_copy():
    assert copy.copy(UNBOUNDED) is UNBOUNDED
    assert copy.deepcopy(UNBOUNDED) is UNBOUNDED
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(UNBOUNDED, protocol)) is UNBOUNDED


@given(st.lists(st.text(alphabet="abn0123456789", min_size=1, max_size=5)))
def test_node_key_orders_by_length_then_text(names):
    ordered = sorted(names, key=node_key)
    assert ordered == sorted(names, key=lambda s: (len(s), s))
    assert sorted_nodes(names) == ordered


def test_total_liabilities_sums_out_weights():
    assert total_liabilities(chain_net(), "a") == 3
    assert total_liabilities(chain_net(), "c") == 0


class TestClearingState:
    def test_revenue_is_externals_plus_flow(self):
        net = chain_net()
        cs = state_for(net, {0: 2, 1: 1})
        assert revenue(net, cs) == 2 + 2 + 1

    def test_flow_over_capacity_rejected(self):
        net = chain_net()
        with pytest.raises(InconsistentStateError):
            check_clearing_consistency(net, state_for(net, {0: 4}))

    def test_asset_identity_enforced(self):
        net = chain_net()
        good = state_for(net, {0: 1})
        bad = ClearingState(
            assets={**good.assets, "b": 99},
            internal_assets=good.internal_assets,
            flows=good.flows,
        )
        with pytest.raises(InconsistentStateError):
            check_clearing_consistency(net, bad)


class TestCirculation:
    def test_source_id_avoids_collision(self):
        net = FinancialNetwork.build(["s", "s'"], {"s": 1}, [])
        circ = build_circulation_network(net)
        assert circ.source not in net.nodes

    def test_aux_edges_cover_all_firms(self):
        net = chain_net()
        circ = reference_circulation(net)
        # One unbounded surplus edge per firm; source-out only where externals are positive.
        assert {e.src for e in circ.source_in} == set(net.nodes)
        assert all(e.weight is UNBOUNDED for e in circ.source_in)
        assert [(e.dst, e.weight) for e in circ.source_out] == [("a", 2)]

    def test_invalid_base_network_rejected(self):
        net = FinancialNetwork.build(["a"], {}, [(0, "a", "a", 1)])
        with pytest.raises(InconsistentStateError):
            build_circulation_network(net)

    def test_extended_state_is_conservative(self):
        net = chain_net()
        circ = reference_circulation(net)
        cs = state_for(net, {0: 2, 1: 1})
        flows = extend_flows_to_circulation(circ, cs)
        for v in circ.nodes:
            inflow = sum(flows.get(e.id) for e in circ.in_edges(v))
            outflow = sum(flows.get(e.id) for e in circ.out_edges(v))
            assert inflow == outflow

    def test_decompose_two_cycle(self):
        net = FinancialNetwork.build(
            ["u", "v"], {}, [(0, "u", "v", 1), (1, "v", "u", 1)]
        )
        graph = reference_circulation(net)
        cs = state_for(net, {0: 1, 1: 1})
        flows = extend_flows_to_circulation(graph, cs)
        decomp = decompose_circulation(build_circulation_network(net), flows)
        assert all(m > 0 for m in decomp.multiplicity)
        recombined = recompose(decomp)
        assert all(
            recombined.get(e.id) == flows.get(e.id) for e in graph.edges
        )


_POOL = ("a", "b", "s", "s'", "t", "u", "v")


@st.composite
def _colliding_networks(draw) -> FinancialNetwork:
    """Firms named from a pool that the source id collides with ("s", "s'")
    or sorts among ("t" after "s"); parallel and zero-weight edges; edge ids
    non-contiguous and given in shuffled order."""
    names = draw(st.lists(st.sampled_from(_POOL), min_size=2, max_size=len(_POOL), unique=True))
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda p: p[0] != p[1]
    )
    ends = draw(st.lists(st.tuples(pairs, st.integers(0, 3)), max_size=10))
    ids = draw(st.lists(st.integers(0, 40), min_size=len(ends), max_size=len(ends), unique=True))
    edges = draw(st.permutations([(i, u, v, w) for i, ((u, v), w) in zip(ids, ends)]))
    externals = draw(st.dictionaries(st.sampled_from(names), st.integers(0, 3)))
    return FinancialNetwork.build(names, externals, edges)


def _imbalance(check, circ, flows: FlowAssignment):
    """The (node, imbalance) that ``check`` reports, or None."""
    try:
        check(circ, flows)
    except ConservationError as exc:
        return exc.node, exc.imbalance
    return None


@given(_colliding_networks(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_compiled_circulation_matches_the_explicit_graph(net, seed):
    """The compiled circulation numbers, balances and decomposes flows
    exactly as the explicit ``LiabilityEdge`` graph does."""
    rng = random.Random(seed)
    circ = build_circulation_network(net)
    graph = reference_circulation(net)
    fstar = max_value_circulation(circ)
    assert list(fstar.flow) == sorted(e.id for e in graph.edges)
    cleared = extend_flows_to_circulation(graph, top_cycle_increase(net, random_profile(rng, net)))
    for flows in (fstar, cleared):
        assert _imbalance(check_conservation, circ, flows) is None
        assert _imbalance(reference_conservation, graph, flows) is None
        assert decompose_circulation(circ, flows) == reference_decompose(graph, flows)
        skewed = dict(flows.flow)
        e = rng.choice(graph.edges).id
        skewed[e] += rng.choice((-2, -1, 1, 2))
        skewed = FlowAssignment(skewed)
        assert _imbalance(check_conservation, circ, skewed) == _imbalance(
            reference_conservation, graph, skewed
        )
