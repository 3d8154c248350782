"""Payment strategies: schedules, validity, reconstruction from flows."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from finclear import (
    EdgeRankingStrategy,
    FinancialNetwork,
    StrategyProfile,
    ThresholdRankingStrategy,
    check_strategy,
    top_cycle_increase,
)
from finclear.strategies import (
    StrategyError,
    behavior_signature,
    check_strategy,
    payment_segments,
    payment_vector,
)
from _reference import ReferenceNetwork, active_segment, threshold_from_flows
from _samplers import pro_rata_payment, random_net, random_profile, with_external


def fan_net() -> FinancialNetwork:
    """One debtor with three ranked creditors; weights 3, 2, 4."""
    return FinancialNetwork.build(
        ["d", "x", "y", "z"],
        {"d": 6},
        [(0, "d", "x", 3), (1, "d", "y", 2), (2, "d", "z", 4)],
    )


class TestCheckStrategy:
    def test_ranking_must_be_permutation(self):
        with pytest.raises(StrategyError):
            check_strategy(EdgeRankingStrategy("d", (0, 1)), fan_net())

    def test_thresholds_must_cover_out_edges(self):
        strat = ThresholdRankingStrategy.of("d", (0, 1, 2), {0: 1, 1: 1})
        with pytest.raises(StrategyError):
            check_strategy(strat, fan_net())

    def test_threshold_above_capacity_rejected(self):
        strat = ThresholdRankingStrategy.of("d", (0, 1, 2), {0: 4, 1: 0, 2: 0})
        with pytest.raises(StrategyError):
            check_strategy(strat, fan_net())

    def test_valid_strategies_pass(self):
        net = fan_net()
        check_strategy(EdgeRankingStrategy("d", (2, 0, 1)), net)
        check_strategy(
            ThresholdRankingStrategy.of("d", (1, 2, 0), {0: 3, 1: 0, 2: 2}), net
        )


class TestEdgeRanking:
    def test_sequential_saturation(self):
        net = fan_net()
        strat = EdgeRankingStrategy("d", (1, 0, 2))
        assert payment_vector(strat, net, 4) == {1: 2, 0: 2, 2: 0}

    def test_payment_is_prefix_clipped(self):
        # Edge i takes min(cap_i, max(0, y - caps before it)) along the ranking.
        net = fan_net()
        strat = EdgeRankingStrategy("d", (0, 1, 2))
        for y in range(10):
            paid = payment_vector(strat, net, y)
            assert paid[0] == min(3, max(0, y))
            assert paid[1] == min(2, max(0, y - 3))
            assert paid[2] == min(4, max(0, y - 5))


class TestThresholdRanking:
    def test_two_pass_order(self):
        net = fan_net()
        strat = ThresholdRankingStrategy.of("d", (2, 0, 1), {0: 1, 1: 0, 2: 2})
        # Pass 1: 2 units to edge 2, 1 to edge 0. Pass 2: remainders 2, 2, 2.
        assert payment_vector(strat, net, 4) == {2: 3, 0: 1, 1: 0}
        assert payment_vector(strat, net, 9) == {2: 4, 0: 3, 1: 2}

    def test_zero_segments_dropped(self):
        net = fan_net()
        strat = ThresholdRankingStrategy.of("d", (0, 1, 2), {0: 0, 1: 2, 2: 0})
        assert payment_segments(strat, net) == [(1, 2), (0, 3), (2, 4)]

    def test_saturating_thresholds_reproduce_edge_ranking(self):
        net = fan_net()
        ranking = (1, 2, 0)
        full = ThresholdRankingStrategy.of("d", ranking, {0: 3, 1: 2, 2: 4})
        plain = EdgeRankingStrategy("d", ranking)
        for y in range(11):
            assert payment_vector(full, net, y) == payment_vector(plain, net, y)


class TestProRata:
    """The proportional payment that the pro-rata clearing tests use as
    their oracle."""

    def test_exact_shares(self):
        net = fan_net()
        paid = pro_rata_payment(net, "d", 6)
        # Shares 3/9, 2/9, 4/9 of 6.
        from fractions import Fraction

        assert paid == {0: Fraction(2), 1: Fraction(4, 3), 2: Fraction(8, 3)}

    def test_caps_bind_individually(self):
        net = FinancialNetwork.build(
            ["d", "x", "y"], {"d": 100}, [(0, "d", "x", 1), (1, "d", "y", 3)]
        )
        paid = pro_rata_payment(net, "d", 100)
        assert paid[0] == 1 and paid[1] == 3


@st.composite
def _net_and_strategy(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    net = random_net(rng)
    profile = random_profile(rng, net)
    owners = [v for v in net.nodes if v in profile.strategies]
    if not owners:
        net = fan_net()
        return net, EdgeRankingStrategy("d", (0, 1, 2))
    return net, profile.strategies[rng.choice(owners)]


@given(_net_and_strategy(), st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_payment_vector_properties(net_strat, y):
    """No overpayment, per-edge caps, exact spend-down, monotone in assets."""
    net, strat = net_strat
    paid = payment_vector(strat, net, y)
    ref = ReferenceNetwork.of(net)
    total_caps = sum(ref.edge(e).weight for e in paid)
    assert sum(paid.values()) == min(y, total_caps)
    assert all(0 <= paid[e] <= ref.edge(e).weight for e in paid)
    more = payment_vector(strat, net, y + 1)
    assert all(more[e] >= paid[e] for e in paid)


@given(_net_and_strategy(), st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_active_segment_names_the_next_unit(net_strat, y):
    net, strat = net_strat
    cursor = active_segment(strat, net, y)
    paid = payment_vector(strat, net, y)
    more = payment_vector(strat, net, y + 1)
    if cursor.active_edge is None:
        assert more == paid
    else:
        assert more[cursor.active_edge] == paid[cursor.active_edge] + 1


def _signature(strat, net: FinancialNetwork) -> tuple:
    return behavior_signature(check_strategy(strat, net), net)


def test_behavior_signature_merges_equivalent_strategies():
    # Different rankings of parallel edges to the same creditor pay it identically.
    net = FinancialNetwork.build(
        ["d", "x"], {"d": 3}, [(0, "d", "x", 2), (1, "d", "x", 2)]
    )
    a = EdgeRankingStrategy("d", (0, 1))
    b = EdgeRankingStrategy("d", (1, 0))
    assert _signature(a, net) == _signature(b, net)
    other = FinancialNetwork.build(
        ["d", "x", "y"], {"d": 3}, [(0, "d", "x", 2), (1, "d", "y", 2)]
    )
    assert _signature(EdgeRankingStrategy("d", (0, 1)), other) != _signature(
        EdgeRankingStrategy("d", (1, 0)), other
    )


def _payment_table(strat, net: FinancialNetwork) -> list[dict[str, int]]:
    """Amount paid to each destination at every asset level 0..l(owner)."""
    out = ReferenceNetwork.of(net).out_edges(strat.owner)
    rows = []
    for y in range(sum(e.weight for e in out) + 1):
        paid = payment_vector(strat, net, y)
        row = {e.dst: 0 for e in out}
        for e in out:
            row[e.dst] += paid[e.id]
        rows.append(row)
    return rows


@st.composite
def _one_firm_strategy_pair(draw):
    """One debtor with parallel, zero-weight edges, and two of its strategies."""
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    dsts = draw(
        st.lists(
            st.sampled_from(["x", "y", "z"]), min_size=len(weights), max_size=len(weights)
        )
    )
    net = FinancialNetwork.build(
        ["d", "x", "y", "z"],
        {},
        [(i, "d", dst, w) for i, (w, dst) in enumerate(zip(weights, dsts))],
    )
    ids = list(range(len(weights)))

    def strategy():
        ranking = tuple(draw(st.permutations(ids)))
        if draw(st.booleans()):
            return EdgeRankingStrategy("d", ranking)
        taus = {i: draw(st.integers(0, weights[i])) for i in ids}
        return ThresholdRankingStrategy.of("d", ranking, taus)

    return net, strategy(), strategy()


@given(_one_firm_strategy_pair())
@settings(max_examples=400, deadline=None)
def test_behavior_signature_equal_iff_payment_tables_equal(case):
    net, a, b = case
    same_signature = _signature(a, net) == _signature(b, net)
    assert same_signature == (_payment_table(a, net) == _payment_table(b, net))


# ---------------------------------------------------------------------------
# Reconstructing a threshold strategy from observed flows


def _reconstruction_case():
    """A profile whose maximal state is sensitive to the replacement's top edge."""
    net = FinancialNetwork.build(
        ["n1", "n2", "n3"],
        {},
        [
            (0, "n2", "n3", 5),
            (1, "n1", "n2", 3),
            (2, "n2", "n3", 1),
            (3, "n2", "n1", 2),
            (4, "n2", "n1", 1),
            (5, "n2", "n3", 3),
            (6, "n2", "n3", 2),
            (7, "n2", "n1", 3),
            (8, "n3", "n2", 5),
            (9, "n1", "n2", 1),
        ],
    )
    profile = StrategyProfile.of(
        [
            EdgeRankingStrategy("n1", (9, 1)),
            ThresholdRankingStrategy.of(
                "n2",
                (2, 0, 3, 6, 4, 7, 5),
                {0: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 1, 7: 3},
            ),
            EdgeRankingStrategy("n3", (8,)),
        ]
    )
    return net, profile


def test_reconstruction_with_active_edge_preserves_the_state():
    net, profile = _reconstruction_case()
    base = top_cycle_increase(net, profile)
    strat = profile.strategy_for("n2")
    paid = sum(base.flows.get(e) for e in net.out_ids("n2"))
    cursor = active_segment(strat, net, paid)
    replacement = threshold_from_flows("n2", net, base, cursor.active_edge)
    check_strategy(replacement, net)
    after = top_cycle_increase(net, profile.replace(replacement))
    assert after.assets == base.assets
    assert after.flows.flow == base.flows.flow


def test_reconstruction_with_arbitrary_unpaid_edge_can_change_the_state():
    """Putting any unpaid edge on top is unsound: it can revive a dead cycle.

    Here the original schedule starves the n2/n3 cycle through edges 0 and 8.
    Ranking unpaid edge 0 first lets a marginal unit circulate forever, so the
    maximal state grows. This pins why reconstruction must use the segment
    that is actually active.
    """
    net, profile = _reconstruction_case()
    base = top_cycle_increase(net, profile)
    assert {v: base.assets[v] for v in net.nodes} == {"n1": 4, "n2": 6, "n3": 2}
    replacement = threshold_from_flows("n2", net, base, 0)
    check_strategy(replacement, net)
    after = top_cycle_increase(net, profile.replace(replacement))
    assert {v: after.assets[v] for v in net.nodes} == {"n1": 4, "n2": 9, "n3": 5}
    assert after.flows.get(0) == 3 and after.flows.get(8) == 5


def test_reconstruction_rejects_solvent_firms_and_paid_edges():
    net = fan_net()
    profile = StrategyProfile.of([EdgeRankingStrategy("d", (0, 1, 2))])
    cs = top_cycle_increase(net, profile)
    with pytest.raises(StrategyError):
        threshold_from_flows("d", net, cs, 0)  # d is insolvent, but edge 0 is full
    rich = with_external(net, "d", 20)
    rich_cs = top_cycle_increase(rich, profile)
    with pytest.raises(StrategyError):
        threshold_from_flows("d", rich, rich_cs, 2)
