"""Clearing-state computation: push algorithm, fixed-point oracles, pro-rata."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finclear import (
    EdgeRankingStrategy,
    FinancialNetwork,
    KleeneStart,
    SearchBudget,
    StrategyProfile,
    clear_pro_rata,
    kleene_clearing,
    revenue,
    top_cycle_increase,
)
from finclear import clearing, cli
from finclear.clearing import BudgetExhaustedError, ProfileError
from finclear.core import InconsistentStateError, asset_ceiling
from finclear.io import load_document, render_document
from _reference import ReferenceNetwork
from _samplers import pro_rata_payment, random_net, random_profile, with_external


def two_cycle(ext_u: int = 1) -> tuple[FinancialNetwork, StrategyProfile]:
    net = FinancialNetwork.build(
        ["u", "v"], {"u": ext_u}, [(0, "u", "v", 1), (1, "v", "u", 1)]
    )
    profile = StrategyProfile.of(
        [EdgeRankingStrategy("u", (0,)), EdgeRankingStrategy("v", (1,))]
    )
    return net, profile


class TestMaximalState:
    def test_single_edge_passes_money_through(self):
        net = FinancialNetwork.build(["a", "b"], {"a": 1}, [(0, "a", "b", 1)])
        profile = StrategyProfile.of([EdgeRankingStrategy("a", (0,))])
        cs = top_cycle_increase(net, profile)
        assert cs.assets == {"a": 1, "b": 1}
        assert cs.flows.get(0) == 1

    def test_no_edges_means_assets_are_externals(self):
        net = FinancialNetwork.build(["a", "b"], {"a": 3, "b": 1}, [])
        cs = top_cycle_increase(net, StrategyProfile.of([]))
        assert cs.assets == {"a": 3, "b": 1}

    def test_two_cycle_with_seed_money(self):
        # One external unit circulates once more through the cycle: a_u = 2.
        net, profile = two_cycle(ext_u=1)
        cs = top_cycle_increase(net, profile)
        assert cs.assets == {"u": 2, "v": 1}
        assert cs.flows.get(0) == 1 and cs.flows.get(1) == 1

    def test_dead_cycle_sustains_itself_in_the_maximal_state(self):
        """With no external money at all, the greatest fixed point still runs
        the cycle at full capacity; the least fixed point is zero everywhere.
        The gap is the defining feature of the maximal-state semantics."""
        net, profile = two_cycle(ext_u=0)
        top = top_cycle_increase(net, profile)
        assert top.assets == {"u": 1, "v": 1}
        bottom = kleene_clearing(net, profile, start=KleeneStart.BOTTOM)
        assert bottom.assets == {"u": 0, "v": 0}

    def test_missing_strategy_rejected(self):
        net, profile = two_cycle()
        partial = StrategyProfile.of([profile.strategy_for("u")])
        with pytest.raises(ProfileError):
            top_cycle_increase(net, partial)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_push_agrees_with_both_kleene_oracles(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    profile = random_profile(rng, net)
    pushed = top_cycle_increase(net, profile)
    from_top = kleene_clearing(net, profile, start=KleeneStart.TOP)
    assert pushed.assets == from_top.assets
    assert pushed.flows.flow == from_top.flows.flow
    from_bottom = kleene_clearing(net, profile, start=KleeneStart.BOTTOM)
    assert all(from_bottom.assets[v] <= pushed.assets[v] for v in net.nodes)


def test_kleene_budget_counts_iterations():
    """From the top the unfunded two-cycle is already a fixed point: one
    iteration. In the leaky 9-cycle u pays v all it holds and v pays s 1
    first, so a lap maps (a_u, a_v, a_s) to (max(0, a_v - 1), a_u,
    min(1, a_v)): from (9, 9, 1) every two laps lower u and v by one, they
    reach 0 after 18 laps, s after 19, and the 20th confirms it."""
    net, profile = two_cycle(ext_u=0)
    tight = SearchBudget(max_candidates=1)
    assert kleene_clearing(net, profile, budget=tight).assets == {"u": 1, "v": 1}
    leaky = FinancialNetwork.build(
        ["s", "u", "v"], {}, [(0, "u", "v", 9), (1, "v", "u", 9), (2, "v", "s", 1)]
    )
    leaky_profile = StrategyProfile.of(
        [EdgeRankingStrategy("u", (0,)), EdgeRankingStrategy("v", (2, 1))]
    )
    assert kleene_clearing(leaky, leaky_profile, budget=SearchBudget(20)).assets == {
        "s": 0, "u": 0, "v": 0,
    }
    with pytest.raises(BudgetExhaustedError, match="after 19 iterations: candidate cap of 19 "):
        kleene_clearing(leaky, leaky_profile, budget=SearchBudget(19))


def test_kleene_guard_stops_a_non_monotone_payment(monkeypatch):
    """Ranking strategies always reach a fixed point within sum(top) + 1
    iterations. A firm that pays only when it holds nothing makes the
    unfunded two-cycle flip between (0, 0) and (1, 1) forever; the guard
    stops it after sum(top) + 1 = 3 iterations."""
    net, profile = two_cycle(ext_u=0)

    def contrary(strat, net, y):
        return {e: 0 if y else 1 for e in strat.ranking}

    monkeypatch.setattr(clearing, "payment_vector", contrary)
    with pytest.raises(InconsistentStateError, match="after 3 iterations"):
        kleene_clearing(net, profile)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cycle_choice_never_affects_the_result(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    profile = random_profile(rng, net)
    reference = top_cycle_increase(net, profile)
    for sub in range(3):
        again = top_cycle_increase(
            net, profile, cycle_rng=random.Random(seed * 7 + sub)
        )
        assert again.assets == reference.assets
        assert again.flows.flow == reference.flows.flow


class TestProRata:
    def test_two_cycle_fixed_point_is_exact(self):
        net, _ = two_cycle(ext_u=1)
        result = clear_pro_rata(net)
        assert result.converged
        assert result.state.assets == {"u": Fraction(2), "v": Fraction(1)}

    def test_acyclic_network_settles(self):
        net = FinancialNetwork.build(
            ["a", "b", "c"],
            {"a": 3},
            [(0, "a", "b", 2), (1, "a", "c", 2), (2, "b", "c", 1)],
        )
        result = clear_pro_rata(net)
        assert result.converged
        assert result.state.assets["b"] == Fraction(3, 2)
        assert result.state.assets["c"] == Fraction(5, 2)

    def test_leaky_cycle_contracts_forever(self):
        """An unsaturated cycle with a side drain: Jacobi iteration halves its
        error every lap and never lands, but the fixed point is exact. Both u
        and v default and pay all they hold, so a_v = a_u and a_u = 1 + a_v / 2,
        whence a_u = a_v = 2 and the drain s gets half of v's 2."""
        net = FinancialNetwork.build(
            ["u", "v", "s"],
            {"u": 1},
            [(0, "u", "v", 10), (1, "v", "u", 10), (2, "v", "s", 10)],
        )
        result = clear_pro_rata(net)
        assert result.converged
        assert result.state.assets == {"u": Fraction(2), "v": Fraction(2), "s": Fraction(1)}
        assert result.iterations == 3  # v defaults, then u, then no one

    def test_unfunded_mutual_cycle_clears_to_its_greatest_state(self):
        """u and v owe each other 10 and hold nothing. Every (c, c) with
        0 <= c <= 10 is a clearing state; the greatest pays in full."""
        net = FinancialNetwork.build(["u", "v"], {}, [(0, "u", "v", 10), (1, "v", "u", 10)])
        result = clear_pro_rata(net)
        assert result.state.assets == {"u": Fraction(10), "v": Fraction(10)}
        assert result.iterations == 1

    def test_zero_weight_debtor_keeps_its_assets(self):
        """z owes only zero-weight edges: it pays nothing and keeps its 3."""
        net = FinancialNetwork.build(
            ["a", "z"], {"a": 1, "z": 3}, [(0, "z", "a", 0), (1, "a", "z", 2)]
        )
        result = clear_pro_rata(net)
        assert result.state.assets == {"a": Fraction(1), "z": Fraction(4)}
        assert result.state.flows.get(0) == 0

    @pytest.mark.parametrize("name", ["pro_rata_ring12.json", "pro_rata_ring40.json"])
    def test_ring_documents_clear_exactly_and_fast(self, name, fixtures_dir, capsys):
        """Two ring-plus-random documents (12 firms with weights up to 1000,
        40 firms with weights up to 30) on which iterating the proportional
        map ran into Python's int-to-str limit or for more than 40 s."""
        path = fixtures_dir / name
        started = time.perf_counter()
        code = cli.main(["clear", "--pro-rata", str(path)])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[-1] == "converged = true"
        assert elapsed < 1.0
        net = load_document(str(path)).network
        printed = {
            line.split(" = ")[0][2:]: Fraction(line.split(" = ")[1]) for line in out[:-2]
        }
        assert printed == _pro_rata_map(net, printed)

    def test_budget_stops_a_large_ring_with_exit_3(self, tmp_path, capsys):
        """A ring of 2000 firms plus 4000 random edges, shaped like the
        smallest ``clear-large`` benchmark document: with no cap, eliminating
        its defaulters' blocks had not finished after two minutes. Each row
        elimination is one candidate, so a cap of 1000 stops it at once,
        with no state printed and the reason on stderr."""
        rng = random.Random("pro-rata budget")
        n = 2000
        nodes = [f"f{i}" for i in range(n)]
        pairs = [(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
        for _ in range(2 * n):
            a, b = rng.sample(nodes, 2)
            pairs.append((a, b))
        net = FinancialNetwork.build(
            nodes,
            {v: rng.randint(1, 100) for v in nodes},
            [(i, a, b, rng.randint(1, 1000)) for i, (a, b) in enumerate(pairs)],
        )
        path = tmp_path / "ring.json"
        path.write_text(render_document(net, None), encoding="utf-8")
        started = time.perf_counter()
        code = cli.main(["clear", "--pro-rata", "--max-candidates", "1000", str(path)])
        elapsed = time.perf_counter() - started
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("pro-rata: stopped in round ")
        assert err.endswith(": candidate cap of 1000 reached\n")
        assert elapsed < 10.0


def _pro_rata_map(net: FinancialNetwork, assets) -> dict:
    """Externals plus the proportional payments at ``assets``."""
    flows = {}
    for v in net.nodes:
        flows.update(pro_rata_payment(net, v, assets[v]))
    new = {v: Fraction(net.external(v)) for v in net.nodes}
    for e in ReferenceNetwork.of(net).edges:
        new[e.dst] += flows.get(e.id, 0)
    return new


def _pro_rata_net(rng: random.Random) -> FinancialNetwork:
    """Up to 8 firms; some edges weigh 0, so some debtors owe nothing."""
    net = random_net(rng, max_nodes=8, max_edges=16)
    records = ReferenceNetwork.of(net).edges
    edges = [(e.id, e.src, e.dst, e.weight * (rng.random() > 0.1)) for e in records]
    return FinancialNetwork.build(net.nodes, net.external_assets, edges)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_pro_rata_is_the_fixed_point_below_every_jacobi_iterate(seed):
    """The greatest fixed point lies below every iterate of the proportional
    map from the top, which falls towards it; where the iteration lands
    within 40 laps it lands on it. Firms with at most one creditor pay alike
    under pro-rata and under any ranking, so then the push kernel agrees."""
    net = _pro_rata_net(random.Random(seed))
    result = clear_pro_rata(net)
    assets = result.state.assets
    assert result.converged and result.iterations <= len(net.nodes)
    assert _pro_rata_map(net, assets) == assets
    iterate = {v: Fraction(x) for v, x in asset_ceiling(net).items()}
    for _ in range(40):
        assert all(iterate[v] >= assets[v] for v in net.nodes)
        following = _pro_rata_map(net, iterate)
        if following == iterate:
            assert iterate == assets
            break
        iterate = following
    ref = ReferenceNetwork.of(net)
    creditors = {v: {e.dst for e in ref.out_edges(v) if e.weight} for v in net.nodes}
    if all(len(c) <= 1 for c in creditors.values()):
        profile = StrategyProfile.of(
            [EdgeRankingStrategy(v, tuple(net.out_ids(v))) for v in net.debtors()]
        )
        assert top_cycle_increase(net, profile).assets == assets


def _relabelled(net: FinancialNetwork, rng: random.Random):
    names = [f"r{i}" for i in range(len(net.nodes))]
    rng.shuffle(names)
    rename = dict(zip(net.nodes, names))
    ids = list(net.ids)
    rng.shuffle(ids)
    records = ReferenceNetwork.of(net).edges
    edges = [(i, rename[e.src], rename[e.dst], e.weight) for i, e in zip(ids, records)]
    externals = {rename[v]: x for v, x in net.external_assets.items()}
    return FinancialNetwork.build(names, externals, edges), rename


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_pro_rata_metamorphic_properties(seed, extra, k):
    """Relabelling firms and edges relabels the state; more external assets
    never lower anyone's assets; scaling every weight and external by k
    scales the state by k."""
    rng = random.Random(seed)
    net = _pro_rata_net(rng)
    assets = clear_pro_rata(net).state.assets

    renamed, rename = _relabelled(net, rng)
    again = clear_pro_rata(renamed).state.assets
    assert {v: again[rename[v]] for v in net.nodes} == assets

    v = rng.choice(net.nodes)
    more = clear_pro_rata(with_external(net, v, net.external(v) + extra)).state.assets
    assert all(more[u] >= assets[u] for u in net.nodes)

    scaled = FinancialNetwork.build(
        net.nodes,
        {v: k * x for v, x in net.external_assets.items()},
        [(e.id, e.src, e.dst, k * e.weight) for e in ReferenceNetwork.of(net).edges],
    )
    assert clear_pro_rata(scaled).state.assets == {v: k * a for v, a in assets.items()}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_revenue_identity(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    profile = random_profile(rng, net)
    cs = top_cycle_increase(net, profile)
    total_flow = sum(cs.flows.flow.values())
    assert revenue(net, cs) == net.total_external() + total_flow
