"""The indexed payoff table and the coalition pruning against a brute-force reference.

The reference below is the search as it reads in the paper's terms: plain
``StrategyProfile``s, each cleared afresh by ``top_cycle_increase``, with
no table, no dedupe by code and no pruning of coalition members beyond
firms that are solvent on external assets alone.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys

import networkx as nx
from hypothesis import assume, given, settings, strategies as st

import finclear.equilibria as equilibria
from finclear import (
    EdgeRankingStrategy,
    EquilibriumReport,
    FinancialNetwork,
    SearchSpace,
    StrategyProfile,
    SatFormula,
    SearchBudget,
    ThreeDmInstance,
    ThreeDmVariant,
    ThresholdRankingStrategy,
    Verdict,
    DeviationWitness,
    best_response_exact,
    enumerate_equilibria,
    gen_from_3dm,
    gen_from_sat,
    gen_spoa_family,
    is_nash,
    is_strong_equilibrium,
    kleene_clearing,
    min_max_cycle_d,
    oracle_max_sat,
    top_cycle_increase,
    welfare_metrics,
)
from finclear import cli
from finclear.clearing import clear_circulation
from finclear.core import node_key, total_liabilities
from finclear.equilibria import strategy_space
from _reference import ReferenceNetwork
from _samplers import random_net, random_profile


def _assets(net, profile):
    return top_cycle_increase(net, profile).assets


def _insolvent(net, assets):
    return [
        v for v in net.debtors() if assets[v] < total_liabilities(net, v)
    ]


def _inflow_paying_exactly(net, profile, v, paid):
    """v's inflow when it pays exactly the unit edges ``paid``: drop its other
    out-edges and give it |paid| more external assets."""
    edges = [e for e in ReferenceNetwork.of(net).edges if e.src != v or e.id in paid]
    externals = {u: net.external(u) for u in net.nodes}
    externals[v] += len(paid)
    trimmed = FinancialNetwork.build(net.nodes, externals, edges)
    others = {u: s for u, s in profile.strategies.items() if u != v}
    if paid:
        others[v] = EdgeRankingStrategy(v, paid)
    return top_cycle_increase(trimmed, StrategyProfile.of(others)).assets[v] - externals[v]


def ref_best_response(net, profile, v, space):
    """(strategy, value): the first best strategy of v's space; with unit
    out-edges in edge space, the ranking that pays first the smallest (by
    size, then lexicographically) self-supporting set of unit edges whose
    inflow attains the best value."""
    base = _assets(net, profile)[v]
    if base >= total_liabilities(net, v):
        return profile.strategy_for(v), base
    candidates = tuple(strategy_space(net, v, space))
    values = [_assets(net, profile.replace(s))[v] for s in candidates]
    best = max(values)
    out = ReferenceNetwork.of(net).out_edges(v)
    if space is SearchSpace.THRESHOLD or any(e.weight > 1 for e in out):
        return candidates[values.index(best)], best
    unit = [e.id for e in out if e.weight == 1]
    zero = [e.id for e in out if e.weight == 0]
    for size in range(len(unit) + 1):
        for paid in itertools.combinations(unit, size):
            value = net.external(v) + _inflow_paying_exactly(net, profile, v, paid)
            if size <= value == best:
                rest = tuple(i for i in unit if i not in paid)
                return EdgeRankingStrategy(v, paid + rest + tuple(zero)), best
    raise AssertionError("no self-supporting paid set attains the best value")


def ref_is_nash(net, profile, space):
    base = _assets(net, profile)
    for v in _insolvent(net, base):
        strategy, value = ref_best_response(net, profile, v, space)
        if value > base[v]:
            witness = DeviationWitness((v,), {v: strategy}, {v: base[v]}, {v: value})
            return EquilibriumReport(Verdict.NOT_NASH, witness, space, True)
    return EquilibriumReport(Verdict.NASH, None, space, True)


def ref_is_strong(net, profile, space):
    base = _assets(net, profile)
    spaces = {v: strategy_space(net, v, space) for v in net.debtors()}
    members = [
        v
        for v in sorted(spaces, key=node_key)
        if len(spaces[v]) >= 2 and net.external(v) < total_liabilities(net, v)
    ]
    for size in range(1, len(members) + 1):
        for coalition in itertools.combinations(members, size):
            for combo in itertools.product(*(spaces[v] for v in coalition)):
                after = _assets(net, profile.replace(*combo))
                if all(after[v] > base[v] for v in coalition):
                    witness = DeviationWitness(
                        coalition,
                        {s.owner: s for s in combo},
                        {v: base[v] for v in coalition},
                        {v: after[v] for v in coalition},
                    )
                    return EquilibriumReport(Verdict.NOT_STRONG, witness, space, True)
    return EquilibriumReport(Verdict.STRONG, None, space, True)


def _profiles(net, space, fixed):
    """Every profile of the non-fixed firms, in product order."""
    firms = [v for v in net.debtors() if v not in fixed]
    for combo in itertools.product(*(strategy_space(net, v, space) for v in firms)):
        yield StrategyProfile.of({**fixed, **{s.owner: s for s in combo}})


def ref_enumerate(net, space, fixed, check_strong):
    findings = []
    for profile in _profiles(net, space, fixed):
        state = top_cycle_increase(net, profile)
        deviates = any(
            _assets(net, profile.replace(alt))[v] > state.assets[v]
            for v in _insolvent(net, state.assets)
            for alt in strategy_space(net, v, space)
            if alt != profile.strategy_for(v)
        )
        if not deviates:
            if check_strong:
                report = ref_is_strong(net, profile, space)
            else:
                report = EquilibriumReport(Verdict.NASH, None, space, True)
            findings.append((profile, state, report))
    return findings


def ref_social_optimum(net, fixed):
    """The highest revenue of any edge-ranking profile."""
    return max(sum(_assets(net, profile).values()) for profile in _profiles(net, SearchSpace.EDGE, fixed))


def _small_game(rng: random.Random, space: SearchSpace) -> FinancialNetwork:
    """2-5 firms with n to 2n edges of weight at most 3 (at most 2, and at
    most n + 2 edges, in threshold space, whose strategy tables grow with
    the weights), a few of weight 0, and external assets of 0-2 on about
    half the firms. A game is drawn again while the product over its firms
    of (strategies + 1), which bounds every coalition search, exceeds 128,
    so that the brute-force reference stays within about a second."""
    while True:
        n = rng.randint(2, 5)
        names = [f"n{i}" for i in range(1, n + 1)]
        if space is SearchSpace.EDGE:
            m, max_weight = rng.randint(n, 2 * n), 3
        else:
            m, max_weight = rng.randint(n, n + 2), 2
        edges = [
            (i, *rng.sample(names, 2), rng.randint(0 if rng.random() < 0.1 else 1, max_weight))
            for i in range(m)
        ]
        externals = {v: rng.randint(0, 2) for v in names if rng.random() < 0.5}
        net = FinancialNetwork.build(names, externals, edges)
        sizes = [len(strategy_space(net, v, space)) for v in net.debtors()]
        if math.prod(k + 1 for k in sizes) <= 128:
            return net


@given(st.integers(0, 2**32 - 1), st.sampled_from(list(SearchSpace)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_searches_match_the_brute_force_reference(seed, space, with_fixed):
    rng = random.Random(seed)
    net = _small_game(rng, space)
    profiles = [random_profile(rng, net) for _ in range(3)]
    fixed = {}
    if with_fixed:
        fixed = {v: s for v, s in profiles[0].strategies.items() if rng.random() < 0.5}

    for v in list(profiles[0].strategies)[:2]:
        br = best_response_exact(net, profiles[0], v, space)
        assert br.exhaustive
        assert (br.strategy, br.value) == ref_best_response(net, profiles[0], v, space)
    for profile in profiles:
        assert is_nash(net, profile, space) == ref_is_nash(net, profile, space)
        strong = is_strong_equilibrium(net, profile, space=space)
        assert strong == ref_is_strong(net, profile, space)

    result = enumerate_equilibria(net, space, fixed=fixed, check_strong=True)
    assert result.exhaustive
    found = [(f.profile, f.state, f.report) for f in result.findings]
    assert found == ref_enumerate(net, space, fixed, check_strong=True)

    social = welfare_metrics(net, SearchSpace.EDGE, fixed=fixed, compute_d=False)
    assert social.exhaustive
    assert social.opt_revenue == ref_social_optimum(net, fixed)


def test_edge_best_response_never_returns_the_current_threshold_strategy():
    """n1's current threshold strategy earns it 4 (it pays n3 2 first, which
    n3 pays back), more than any edge ranking earns (at most 3). Edge space
    holds only edge rankings, so the best response is the best of those."""
    net = FinancialNetwork.build(
        ["n1", "n2", "n3", "n5"],
        {},
        [
            (0, "n3", "n1", 2), (1, "n2", "n5", 3), (2, "n1", "n2", 3),
            (3, "n1", "n3", 3), (4, "n1", "n5", 1), (5, "n5", "n1", 2),
        ],
    )
    profile = StrategyProfile.of([
        ThresholdRankingStrategy.of("n1", (3, 2, 4), {2: 2, 3: 1, 4: 0}),
        ThresholdRankingStrategy.of("n2", (1,), {1: 1}),
        EdgeRankingStrategy("n3", (0,)),
        EdgeRankingStrategy("n5", (5,)),
    ])
    assert top_cycle_increase(net, profile).assets["n1"] == 4
    br = best_response_exact(net, profile, "n1")
    assert (br.strategy, br.value) == (EdgeRankingStrategy("n1", (4, 3, 2)), 3)
    assert (br.strategy, br.value) == ref_best_response(net, profile, "n1", SearchSpace.EDGE)


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(equilibria, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(equilibria, name, counted)
    return counts


def test_welfare_metrics_clears_each_profile_once(monkeypatch):
    """spoa d=7 has 64 edge-ranking profiles; the optimum, the enumeration,
    the coalition checks and d share one game, one circulation and one f*."""
    names = ("clear_circulation", "build_circulation_network", "max_value_circulation")
    counts = _count_calls(monkeypatch, names)
    metrics = welfare_metrics(gen_spoa_family(7))
    assert (metrics.opt_revenue, metrics.d_bound, metrics.d_exact) == (42, 7, True)
    assert counts == {
        "clear_circulation": 64,
        "build_circulation_network": 1,
        "max_value_circulation": 1,
    }
    counts.update(dict.fromkeys(names, 0))
    welfare_metrics(gen_spoa_family(7), space=SearchSpace.THRESHOLD)
    assert counts["max_value_circulation"] == 1
    assert counts["build_circulation_network"] == 1


def test_cycle_bound_search_depth_is_not_bounded_by_the_recursion_limit():
    """A unit ring longer than the recursion limit allows: one optimum, whose
    only decomposition is the ring plus the external unit's 2-cycle."""
    n = 300
    net = FinancialNetwork.build(
        [f"f{i}" for i in range(n)],
        {"f0": 1},
        [(i, f"f{i}", f"f{(i + 1) % n}", 1) for i in range(n)],
    )
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + n // 2)
    try:
        bound = min_max_cycle_d(net)
    finally:
        sys.setrecursionlimit(old)
    assert (bound.value, bound.exact) == (n, True)


@given(st.integers(0, 2**32 - 1), st.sampled_from(list(SearchSpace)))
@settings(max_examples=60, deadline=None)
def test_game_clear_matches_kleene_on_every_searched_profile(seed, space):
    """Random games of 2-6 firms with a random subset of the firms given:
    every profile of the searched firms, cleared from the game's compiled
    schedules, has the assets that the Kleene oracle finds for
    ``game.profile(code)``, in ``game.circ.nodes`` order with 0 for the
    source. The names put the circulation's source "s" before some firms
    and after others, so a schedule or an asset written at a firm's
    ``net.nodes`` position instead of its ``circ.index`` shows. Weights are small, firms with more than three
    (threshold space) or four (edge space) out-edges are always given, and
    searched firms are given back until at most 300 profiles remain."""
    rng = random.Random(seed)
    names = rng.sample(["a", "b", "t", "u", "n1", "n2", "x9"], rng.randint(2, 6))
    edges = [
        (i, *rng.sample(names, 2), 0 if rng.random() < 0.1 else rng.randint(1, 2))
        for i in range(rng.randint(len(names), 3 * len(names)))
    ]
    externals = {v: rng.randint(0, 2) for v in names if rng.random() < 0.5}
    net = FinancialNetwork.build(names, externals, edges)
    profile = random_profile(rng, net)
    firms = net.debtors()
    big = 3 if space is SearchSpace.THRESHOLD else 4
    searched = [v for v in firms if rng.random() < 0.7 and len(net.out_ids(v)) <= big]
    sizes = {v: len(strategy_space(net, v, space)) for v in searched}
    while math.prod(sizes[v] for v in searched) > 300:
        searched.pop(rng.randrange(len(searched)))
    given_part = {v: profile.strategy_for(v) for v in firms if v not in searched}
    game = equilibria._Game(net, SearchBudget(), space, given_part)
    for code in game.codes(searched):
        expected = kleene_clearing(net, game.profile(code)).assets
        assert game.clear(code) == tuple(expected.get(v, 0) for v in game.circ.nodes)


def _modular_net(rng: random.Random, shape: str) -> FinancialNetwork:
    """2-7 firms in strongly connected parts joined by edges from earlier
    parts to later ones. ``"parts"``: 1-4 parts, each a lone firm, a ring of
    2-3 firms or a ring with a chord; ``"singletons"``: every firm is its
    own part (a DAG); ``"whole"``: one ring with chords. Weights are 0-3,
    mostly 1 or 2, so thresholds split edges and unit edges are common."""
    names = rng.sample(["a", "b", "t", "u", "n1", "n2", "x9", "z"], rng.randint(2, 7))
    if shape == "whole":
        parts = [names]
    elif shape == "singletons":
        parts = [[v] for v in names]
    else:
        cuts = sorted(rng.sample(range(1, len(names)), min(len(names) - 1, rng.randint(0, 3))))
        parts = [names[i:j] for i, j in zip([0, *cuts], [*cuts, len(names)])]
    weight = lambda: rng.choice((0, 1, 1, 2, 2, 3))  # noqa: E731
    edges = []
    for part in parts:
        if len(part) > 1:
            edges += [(v, part[(j + 1) % len(part)], max(1, weight())) for j, v in enumerate(part)]
            if len(part) > 2 and rng.random() < 0.5:
                edges.append((*rng.sample(part, 2), weight()))
    if len(parts) > 1:
        for _ in range(rng.randint(1, len(names) + 1)):
            p, q = sorted(rng.sample(range(len(parts)), 2))
            edges.append((rng.choice(parts[p]), rng.choice(parts[q]), weight()))
    externals = {v: rng.randint(0, 3) for v in names if rng.random() < 0.6}
    return FinancialNetwork.build(names, externals, [(i, *e) for i, e in enumerate(edges)])


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(SearchSpace)),
    st.sampled_from(["parts", "parts", "singletons", "whole"]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_block_clearing_matches_the_full_kernel_and_kleene(seed, space, shape, all_given):
    """Block-by-block clearing, with its per-game memo, against the plain
    kernel on the whole circulation and against the Kleene oracle, on games
    of strongly connected parts joined into a DAG. Strategies are mostly
    threshold rankings, whose schedules list a split edge's slot twice.
    Every profile of the searched firms (a random part of them given, or
    all) and, with a full profile, every subset that ``_ExactPayoffs``
    scores for every firm, in one game, so the memo is shared by both.

    On a copy of ``_Game.assets`` whose memo key leaves out the amounts
    entering a block, this property fails: a block then reuses the payments
    it made when less or more flowed in from upstream."""
    rng = random.Random(seed)
    net = _modular_net(rng, shape)
    profile = random_profile(rng, net, threshold_p=0.7)
    firms = net.debtors()
    big = 3 if space is SearchSpace.THRESHOLD else 4
    searched = [v for v in firms if rng.random() < 0.7 and len(net.out_ids(v)) <= big]
    sizes = {v: len(strategy_space(net, v, space)) for v in searched}
    while math.prod(sizes[v] for v in searched) > 150:
        searched.pop(rng.randrange(len(searched)))
    given_part = {
        v: s for v, s in profile.strategies.items()
        if all_given or v not in searched or rng.random() < 0.5
    }
    game = equilibria._Game(net, SearchBudget(), space, given_part)
    circ, calls, assets = game.circ, [], game.assets

    def full(schedules, external):
        held = list(external)
        for k, f in enumerate(clear_circulation(circ, schedules, external)[: len(circ.slot)]):
            held[circ.dst[k]] += f
        return tuple(held)

    def recorded(schedules, external):
        calls.append((schedules, external, assets(schedules, external)))
        return calls[-1][2]

    game.assets = recorded
    for code in game.codes(searched):
        expected = kleene_clearing(net, game.profile(code)).assets
        assert game.clear(code) == tuple(expected.get(v, 0) for v in circ.nodes)
    if all_given:
        for v in firms:
            unit = [e for e in net.out_ids(v) if net.weights[net.slot[e]] == 1]
            payoffs = equilibria._ExactPayoffs(game, v)
            for size in range(len(unit) + 1):
                for paid in itertools.combinations(unit, size):
                    inflow = payoffs.inflow(paid)
                    trimmed = FinancialNetwork.build(
                        net.nodes,
                        {**net.external_assets, v: net.external(v) + size},
                        [e for e in ReferenceNetwork.of(net).edges if e.src != v or e.id in paid],
                    )
                    others = {u: s for u, s in profile.strategies.items() if u != v}
                    if paid:
                        others[v] = EdgeRankingStrategy(v, paid)
                    expected = kleene_clearing(trimmed, StrategyProfile.of(others)).assets
                    assert calls[-1][2] == tuple(expected.get(u, 0) for u in circ.nodes)
                    assert inflow == expected[v] - trimmed.external(v)
    assert calls
    for schedules, external, got in calls:
        assert got == full(schedules, external)


def _modular_game(rng: random.Random, shape: str, space: SearchSpace, bound: int = 128) -> FinancialNetwork:
    """A ``_modular_net`` drawn again while a firm has more than three
    (threshold space) or four (edge space) out-edges, or the product over
    its firms of (strategies + 1) exceeds ``bound``, as ``_small_game``
    bounds the reference."""
    big = 3 if space is SearchSpace.THRESHOLD else 4
    while True:
        net = _modular_net(rng, shape)
        if any(len(net.out_ids(v)) > big for v in net.nodes):
            continue
        sizes = [len(strategy_space(net, v, space)) for v in net.debtors()]
        if math.prod(k + 1 for k in sizes) <= bound:
            return net


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(SearchSpace)),
    st.sampled_from(["parts", "parts", "singletons", "whole"]),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_block_aware_searches_match_the_brute_force_reference(seed, space, shape, with_fixed):
    """On games of strongly connected parts joined into a DAG, the searches
    skip firms alone in their block and try only coalitions inside one
    block; the reference skips neither. Nash verdicts, strong verdicts with
    their witnesses, and every equilibrium found (with fixed strategies or
    without) are the same."""
    rng = random.Random(seed)
    net = _modular_game(rng, shape, space)
    profiles = [random_profile(rng, net, threshold_p=0.5) for _ in range(3)]
    for profile in profiles:
        assert is_nash(net, profile, space) == ref_is_nash(net, profile, space)
        strong = is_strong_equilibrium(net, profile, space=space)
        assert strong == ref_is_strong(net, profile, space)
    fixed = {}
    if with_fixed:
        fixed = {v: s for v, s in profiles[0].strategies.items() if rng.random() < 0.5}
    result = enumerate_equilibria(net, space, fixed=fixed, check_strong=True)
    assert result.exhaustive
    found = [(f.profile, f.state, f.report) for f in result.findings]
    assert found == ref_enumerate(net, space, fixed, check_strong=True)


def _scc(net: FinancialNetwork) -> dict:
    """Each node's strongly connected component of the liability graph, by networkx."""
    graph = nx.DiGraph()
    graph.add_nodes_from(net.nodes)
    graph.add_edges_from((net.names[u], net.names[v]) for u, v in zip(net.src, net.dst))
    return {v: frozenset(c) for c in nx.strongly_connected_components(graph) for v in c}


def _record_moves(monkeypatch, name: str) -> list:
    """Wrap ``equilibria.<name>(game, code, ...)``: for each ``_Game.clear``
    call made inside it, record (the wrapped call's arguments, the firms
    whose strategy in the cleared profile differs from theirs in ``code``)."""
    calls, inside = [], []
    search, clear = getattr(equilibria, name), equilibria._Game.clear

    def wrapped(game, code, *args):
        inside.append((game, code, *args))
        try:
            return search(game, code, *args)
        finally:
            inside.pop()

    def recorded(game, code):
        if inside:
            at = inside[-1][1]
            moved = {v for v in game.options if game.index(code, v) != game.index(at, v)}
            calls.append((inside[-1], moved))
        return clear(game, code)

    monkeypatch.setattr(equilibria, name, wrapped)
    monkeypatch.setattr(equilibria._Game, "clear", recorded)
    return calls


THREE_DM = (ThreeDmInstance.of([3, 7, 8], [(8, 8, 3), (8, 3, 7)]), ThreeDmVariant.DECISION)
THREE_DM_ARGV = [
    "3dm", "--elements", "3,7,8", "--variant", "decision", "--triple", "8,8,3", "--triple", "8,3,7"
]


def test_deviation_checks_on_the_3dm_gadget_never_move_a_firm_alone_in_its_block(monkeypatch):
    """The decision gadget of (8,8,3),(8,3,7): three 9-firm blocks, and
    ``pool``, ``u1``, ``u2`` and the ``t`` firms each alone in theirs. No
    deviation that ``_deviates`` clears moves a firm alone in its block,
    though such firms are insolvent in the states it checks."""
    net, profile, _ = gen_from_3dm(*THREE_DM)
    scc = _scc(net)
    alone = {v for v in net.debtors() if len(scc[v]) == 1}
    assert alone == {"pool", "u1", "u2", "t3", "t7", "t8"}
    calls = _record_moves(monkeypatch, "_deviates")
    result = enumerate_equilibria(net, fixed=profile)
    assert result.exhaustive and len(result.findings) == 8
    assert calls and all(len(moved) == 1 for _, moved in calls)
    assert not set().union(*(moved for _, moved in calls)) & alone
    skipped = {
        v for (game, _, assets), _ in calls for v in alone
        if assets[game.circ.index[v]] < game.liabilities[v]
    }
    assert {"pool", "u1", "u2"} <= skipped


def test_strong_checks_never_try_a_coalition_across_two_blocks(monkeypatch):
    """Strong checks on ``"parts"`` games, in both spaces, in profiles where
    insolvent firms with two strategies or more lie in two blocks of two
    firms or more (about 90 checks in 1,500 games): no joint deviation tried
    moves firms of two blocks, and the verdicts and witnesses equal those of
    the reference, which tries every coalition."""
    calls = _record_moves(monkeypatch, "_is_strong")
    checked = 0
    for seed in range(1500):
        rng = random.Random(seed)
        space = list(SearchSpace)[seed % 2]
        net = _modular_game(rng, "parts", space, bound=2000)
        scc = _scc(net)
        cyclic = {v for v in net.debtors() if len(scc[v]) > 1 and len(strategy_space(net, v, space)) >= 2}
        if len({scc[v] for v in cyclic}) < 2:
            continue
        for _ in range(5):
            profile = random_profile(rng, net, threshold_p=0.5)
            members = [v for v in _insolvent(net, _assets(net, profile)) if v in cyclic]
            if len({scc[v] for v in members}) < 2:
                continue
            del calls[:]
            report = is_strong_equilibrium(net, profile, space=space)
            assert report == ref_is_strong(net, profile, space)
            assert calls and all(len({scc[v] for v in moved}) <= 1 for _, moved in calls)
            checked += 1
    assert checked >= 60


def test_a_strong_check_tries_only_moves_that_change_every_member(monkeypatch):
    """On spoa d=7, a strong check of each strong equilibrium looks up at
    most the product of its members' option counts: every tried move
    changes every member of its coalition, so m members of two options each
    try one move per coalition, 2^m lookups with the base profile's, where
    giving each member its current option too tried 3^m."""
    net = gen_spoa_family(7)
    strong = [
        finding.profile
        for finding in enumerate_equilibria(net, check_strong=True).findings
        if finding.report.verdict is Verdict.STRONG
    ]
    assert strong
    calls, sizes = _record_moves(monkeypatch, "_is_strong"), []
    for profile in strong:
        del calls[:]
        report = is_strong_equilibrium(net, profile)
        assert report.verdict is Verdict.STRONG and report.exhaustive
        (game, code), _ = calls[0]
        members = equilibria._coalition_members(game, game.table[code])
        assert len(calls) <= math.prod(game.space_size[v] for v in members)
        sizes.append(len(members))
    assert max(sizes) >= 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_coin_games_have_a_socially_optimal_strong_equilibrium(seed):
    """Coin games have a socially optimal strong equilibrium (Bertschinger,
    Hoefer & Schmand, ITCS 2020; ``optimal_strong_equilibrium``), so an
    exhaustive threshold-space ``welfare_metrics`` finds both ratios to the
    best equilibria equal to 1, on random games of up to 5 firms, 7 edges
    and weight 3."""
    net = random_net(random.Random(seed), max_nodes=5, max_edges=7, max_weight=3)
    metrics = welfare_metrics(
        net, space=SearchSpace.THRESHOLD, budget=SearchBudget(max_candidates=20_000), compute_d=False
    )
    assume(metrics.exhaustive)
    assert metrics.pos == metrics.spos == 1


def _cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    return (code, *capsys.readouterr())


def test_a_budget_the_3dm_enumeration_used_to_exhaust_now_suffices(tmp_path, capsys):
    """Skipping the deviations of firms alone in their block leaves about a
    quarter of the table misses: ``--max-candidates 2000`` stopped this
    enumeration with exit 3 (4,140 charges) and now lets it finish, with the
    unbudgeted output."""
    path = tmp_path / "3dm.json"
    code, doc, _ = _cli(capsys, "gen", *THREE_DM_ARGV)
    assert code == 0
    path.write_text(doc, encoding="utf-8")
    unbudgeted = _cli(capsys, "enumerate", str(path))
    assert unbudgeted[0] == 0 and unbudgeted[1].startswith("8 equilibria\n")
    assert _cli(capsys, "enumerate", "--max-candidates", "2000", str(path)) == unbudgeted


def test_a_nash_check_spends_no_budget_on_a_firm_alone_in_its_block(tmp_path, capsys):
    """u and v owe each other 1, and u also owes w 1: u, insolvent, is
    searched in a few subsets. x, alone in its block, holds 1 and owes 2 to
    each of b, c, d and e: its 24 rankings and their clears would take the
    whole budget of 30, which made this check exit 3 with ``exhaustive =
    false``. Its assets do not depend on its ranking, so it is not searched."""
    nodes = [{"id": v, "external": int(v == "x")} for v in ("u", "v", "w", "x", "b", "c", "d", "e")]
    edges = [("u", "v", 1), ("u", "w", 1), ("v", "u", 1)] + [("x", d, 2) for d in "bcde"]
    doc = {
        "nodes": nodes,
        "edges": [{"id": i, "src": s, "dst": d, "weight": w} for i, (s, d, w) in enumerate(edges)],
        "strategies": [
            {"owner": "u", "kind": "edge-ranking", "ranking": [0, 1]},
            {"owner": "v", "kind": "edge-ranking", "ranking": [2]},
            {"owner": "x", "kind": "edge-ranking", "ranking": [3, 4, 5, 6]},
        ],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    budgeted = _cli(capsys, "check", "--nash", "--max-candidates", "30", str(path))
    assert budgeted == (0, "verdict = nash\nexhaustive = true\n", "")
    assert _cli(capsys, "check", "--nash", str(path)) == budgeted


C12_FORMULA = SatFormula.of(5, [(1, 2, -3), (1, -2, 4), (3, -4), (2, -3, 4, 5)])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_surgery_inflow_matches_a_rebuilt_network_for_every_subset(seed):
    """Unit edges (a few of weight 0), 2-6 firms: for every firm and every
    subset of its unit out-edges, clearing the game's compiled schedules
    with the firm's schedule replaced by that subset (then surplus) and its
    external raised by the subset's size gives the inflow of the trimmed,
    rebuilt network."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    names = [f"n{i}" for i in range(1, n + 1)]
    edges = [
        (i, *rng.sample(names, 2), 0 if rng.random() < 0.1 else 1)
        for i in range(rng.randint(n, 3 * n))
    ]
    externals = {v: rng.randint(0, 2) for v in names if rng.random() < 0.5}
    net = FinancialNetwork.build(names, externals, edges)
    profile = random_profile(rng, net)
    game = equilibria._Game(net, SearchBudget(), SearchSpace.EDGE, profile)
    for v in net.nodes:
        unit = [e for e in net.out_ids(v) if net.weights[net.slot[e]] == 1]
        payoffs = equilibria._ExactPayoffs(game, v)
        for size in range(len(unit) + 1):
            for paid in itertools.combinations(unit, size):
                assert payoffs.inflow(paid) == _inflow_paying_exactly(net, profile, v, paid)


def test_surgery_inflow_matches_a_rebuilt_network_on_the_formula_gadget(monkeypatch):
    """Every subset that the best response on the worked formula scores, by
    schedule substitution on the game's own circulation."""
    net, profile, firm = gen_from_sat(C12_FORMULA)
    scored = {}
    inflow = equilibria._ExactPayoffs.inflow

    def recorded(self, subset):
        scored[tuple(sorted(subset))] = value = inflow(self, subset)
        return value

    monkeypatch.setattr(equilibria._ExactPayoffs, "inflow", recorded)
    br = best_response_exact(net, profile, firm, budget=SearchBudget(max_candidates=10**7))
    assert br.exhaustive and len(scored) == br.evaluated == 90
    for paid, value in scored.items():
        assert value == _inflow_paying_exactly(net, profile, firm, paid)


def test_best_response_on_the_formula_gadget_builds_one_circulation(monkeypatch):
    """The subset search substitutes the firm's schedule in the game's
    compiled circulation; it builds no network of its own."""
    counts = _count_calls(monkeypatch, ("build_circulation_network",))
    net, profile, firm = gen_from_sat(C12_FORMULA)
    br = best_response_exact(net, profile, firm, budget=SearchBudget(max_candidates=10**7))
    assert br.value == C12_FORMULA.num_vars + oracle_max_sat(C12_FORMULA)
    assert counts == {"build_circulation_network": 1}
