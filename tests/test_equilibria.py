"""Best responses, equilibrium checks, enumeration, and welfare metrics."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from finclear import (
    UNBOUNDED,
    EdgeRankingStrategy,
    FinancialNetwork,
    SatFormula,
    SearchBudget,
    SearchSpace,
    StrategyProfile,
    ThreeDmInstance,
    ThreeDmVariant,
    ThresholdRankingStrategy,
    Verdict,
    best_response_exact,
    enumerate_equilibria,
    gen_edge_spos_family,
    gen_from_3dm,
    gen_from_sat,
    gen_no_nash,
    gen_poa_unbounded,
    gen_spoa_family,
    is_nash,
    is_strong_equilibrium,
    kleene_clearing,
    min_max_cycle_d,
    optimal_strong_equilibrium,
    render_document,
    revenue,
    top_cycle_increase,
    welfare_metrics,
)
from finclear.core import (
    build_circulation_network,
    check_conservation,
    decompose_circulation,
)
from finclear import cli, clearing, core, equilibria
from finclear.clearing import ProfileError
from finclear.equilibria import max_value_circulation, strategy_space
from finclear.strategies import StrategyError, check_strategy
from _reference import (
    ReferenceNetwork,
    reference_circulation,
    reference_max_value_circulation,
    reference_strategy_space,
)
from _samplers import random_net, random_profile, with_external


def _gate_profile(fixed: StrategyProfile, hub, pgate, qgate) -> StrategyProfile:
    return fixed.replace(
        EdgeRankingStrategy("hub", hub),
        EdgeRankingStrategy("pgate", pgate),
        EdgeRankingStrategy("qgate", qgate),
    )


def _poa_dead_end() -> tuple[FinancialNetwork, StrategyProfile]:
    net = gen_poa_unbounded()
    profile = StrategyProfile.of(
        [EdgeRankingStrategy("f1", (0, 2)), EdgeRankingStrategy("f2", (1, 3))]
    )
    return net, profile


class TestBestResponse:
    def test_gate_firm_gains_by_paying_its_sink_first(self):
        net, fixed = gen_no_nash()
        profile = _gate_profile(fixed, hub=(0, 6), pgate=(3, 4), qgate=(9, 10))
        br = best_response_exact(net, profile, "pgate")
        assert br.exhaustive
        assert br.value == 5
        assert br.strategy.ranking[0] == 4  # the sink edge jumps the queue

    @given(st.integers(0, 2**32 - 1))
    @example(34069)  # n2 owes n1 on six parallel edges, five of them of weight 3
    @settings(max_examples=25, deadline=None)
    def test_threshold_space_dominates_edge_space(self, seed):
        rng = random.Random(seed)
        net = random_net(rng, max_nodes=4, max_edges=6, max_weight=3)
        profile = random_profile(rng, net)
        firms = [v for v in net.nodes if v in profile.strategies]
        if not firms:
            return
        firm = firms[0]
        edge_br = best_response_exact(net, profile, firm, space=SearchSpace.EDGE)
        thr_br = best_response_exact(net, profile, firm, space=SearchSpace.THRESHOLD)
        assert edge_br.exhaustive and thr_br.exhaustive
        assert thr_br.value >= edge_br.value


@given(st.integers(0, 2**32 - 1), st.sampled_from(list(SearchSpace)))
@settings(max_examples=100, deadline=None)
def test_strategy_space_keeps_every_behavior_in_order(seed, space):
    """Skipping the rankings that order interchangeable out-edges against
    ascending id keeps the same strategies, in the same order, each with its
    ``check_strategy`` segments, and charges no more candidates than there
    are rankings and threshold vectors."""
    rng = random.Random(seed)
    net = random_net(rng, max_nodes=3, max_edges=4, max_weight=2)
    for v in net.debtors():
        threshold = space is SearchSpace.THRESHOLD
        meter = equilibria._Meter(SearchBudget(10**7))
        kept = strategy_space(net, v, space, meter=meter)
        assert tuple(kept) == reference_strategy_space(net, v, threshold)
        assert all(segments == check_strategy(s, net) for s, segments in kept.items())
        sizes = [net.weights[net.slot[e]] + 1 if threshold else 1 for e in net.out_ids(v)]
        assert meter.used <= math.factorial(len(sizes)) * math.prod(sizes)


class TestNash:
    def test_every_gate_ordering_admits_a_deviation(self):
        """The two-branch gadget has no pure equilibrium: all 8 profiles fail."""
        net, fixed = gen_no_nash()
        for hub, pgate, qgate in itertools.product(
            [(0, 6), (6, 0)], [(3, 4), (4, 3)], [(9, 10), (10, 9)]
        ):
            report = is_nash(net, _gate_profile(fixed, hub, pgate, qgate))
            assert report.verdict is Verdict.NOT_NASH
            assert report.witness is not None

    def test_seed_money_at_the_sink_stabilizes_the_gadget(self):
        net, fixed = gen_no_nash()
        net = with_external(net, "qsink", 1)
        profile = _gate_profile(fixed, hub=(6, 0), pgate=(3, 4), qgate=(9, 10))
        report = is_nash(net, profile)
        assert report.verdict is Verdict.NASH
        assert report.exhaustive
        strong = is_strong_equilibrium(net, profile)
        assert strong.verdict is Verdict.STRONG
        assert strong.exhaustive

    def test_ring_with_shortcut_nash_revenue(self):
        net = gen_edge_spos_family(5, 10)
        profile = StrategyProfile.of(
            [EdgeRankingStrategy(v, tuple(net.out_ids(v))) for v in net.debtors()]
        )
        # r1 prefers the long way around; everyone else has a single edge.
        out = sorted(ReferenceNetwork.of(net).out_edges("r1"), key=lambda e: e.dst != "r5")
        long_first = [e.id for e in out]
        profile = profile.replace(EdgeRankingStrategy("r1", tuple(long_first)))
        report = is_nash(net, profile)
        assert report.verdict is Verdict.NASH
        state = top_cycle_increase(net, profile)
        assert revenue(net, state) == 22


    def test_budget_running_out_in_a_subset_search_is_flagged(self):
        """f1's out-edges are unit edges, so its best response is the subset
        search; with one candidate the base clear uses the whole budget."""
        net, profile = _poa_dead_end()
        report = is_nash(net, profile, budget=SearchBudget(max_candidates=1))
        assert (report.verdict, report.exhaustive) == (Verdict.NASH, False)


class TestStrong:
    def test_dead_end_nash_is_not_strong(self):
        """Two firms can jointly close their 2-cycle and both gain 0 -> 1."""
        net, profile = _poa_dead_end()
        assert is_nash(net, profile).verdict is Verdict.NASH
        report = is_strong_equilibrium(net, profile)
        assert report.verdict is Verdict.NOT_STRONG
        assert report.witness.coalition == ("f1", "f2")
        assert report.witness.before == {"f1": 0, "f2": 0}
        assert report.witness.after == {"f1": 1, "f2": 1}

    def test_witness_replays_exactly(self):
        net, profile = _poa_dead_end()
        witness = is_strong_equilibrium(net, profile).witness
        deviated = profile.replace(*witness.new_strategies.values())
        after = top_cycle_increase(net, deviated)
        for member in witness.coalition:
            assert after.assets[member] == witness.after[member]

    def test_coalition_walk_over_cleared_profiles_stops_at_the_deadline(self):
        """A second walk finds every profile in the table, so it charges no
        candidate; it must still stop once the deadline has passed."""
        net, profile = _poa_dead_end()
        game = equilibria._Game(net, SearchBudget(), SearchSpace.EDGE, profile)
        assert equilibria._is_strong(game, 0).verdict is Verdict.NOT_STRONG
        cleared = len(game.table)
        game.meter.deadline = time.monotonic() - 1
        with pytest.raises(equilibria._Exhausted, match="timeout"):
            equilibria._is_strong(game, 0)
        assert len(game.table) == cleared


class TestEnumerate:
    def test_gadget_has_no_equilibria(self):
        net, fixed = gen_no_nash()
        result = enumerate_equilibria(net, fixed=fixed)
        assert result.exhaustive
        assert result.findings == ()

    def test_two_cycle_has_exactly_one_profile(self):
        net = FinancialNetwork.build(
            ["u", "v"], {"u": 1}, [(0, "u", "v", 1), (1, "v", "u", 1)]
        )
        result = enumerate_equilibria(net)
        assert result.exhaustive
        assert len(result.findings) == 1
        assert revenue(net, result.findings[0].state) == 3

    def test_budget_exhaustion_is_flagged(self):
        net, fixed = gen_no_nash()
        result = enumerate_equilibria(
            net, fixed=fixed, budget=SearchBudget(max_candidates=3)
        )
        assert not result.exhaustive

    def test_equilibria_are_cleared_again_within_the_deadline(self, monkeypatch, tmp_path, capsys):
        """a owes b and c 10^6 each, and c owes a the 1 it holds, so both
        rankings of a are equilibria. Each equilibrium found is cleared again
        for its state, under the search's deadline: with a clock that passes
        the timeout during the first of those clears, the run lists the first
        equilibrium of the untimed run and is not exhaustive (exit 3)."""
        w = 10**6
        net = FinancialNetwork.build(
            ["a", "b", "c"], {"c": 1}, [(0, "a", "b", w), (1, "a", "c", w), (2, "c", "a", 1)]
        )
        path = tmp_path / "fork.json"
        path.write_text(render_document(net), encoding="utf-8")
        untimed = enumerate_equilibria(net)
        assert untimed.exhaustive and len(untimed.findings) == 2
        assert cli.main(["enumerate", str(path)]) == 0
        listed = capsys.readouterr().out.splitlines()
        now = [0.0]
        monkeypatch.setattr(core, "time", SimpleNamespace(monotonic=lambda: now[0]))
        cleared = equilibria.cleared_state

        def slow(*args, **kwargs):
            now[0] += 10.0
            return cleared(*args, **kwargs)

        monkeypatch.setattr(equilibria, "cleared_state", slow)
        timed = enumerate_equilibria(net, budget=SearchBudget(timeout_secs=5.0))
        assert (timed.findings, timed.exhaustive) == (untimed.findings[:1], False)
        now[0] = 0.0
        assert cli.main(["enumerate", "--timeout-secs", "5", str(path)]) == cli.EXIT_EXHAUSTED
        first = listed.index("equilibrium 2: revenue = 3")
        assert capsys.readouterr().out.splitlines() == [
            "1 equilibrium", *listed[1:first], "search exhausted budget; results may be incomplete"
        ]


class TestSocialOptimum:
    """The edge-ranking optimum is the best revenue of the enumeration pass."""

    def test_ring_with_shortcut_optimum_uses_the_short_edge(self):
        net = gen_edge_spos_family(5, 10)
        opt = welfare_metrics(net, compute_d=False)
        assert opt.exhaustive
        assert opt.opt_revenue == 50

    def test_dead_cycle_game_optimum(self):
        assert welfare_metrics(gen_poa_unbounded(), compute_d=False).opt_revenue == 2

    def test_no_edges_means_externals_only(self):
        net = FinancialNetwork.build(["solo"], {"solo": 7}, [])
        opt = welfare_metrics(net, compute_d=False)
        assert opt.exhaustive
        assert opt.opt_revenue == 7


class TestCycleBound:
    def test_two_cycle_game(self):
        assert min_max_cycle_d(gen_poa_unbounded()).value == 2

    def test_ring_game_needs_the_full_ring(self):
        bound = min_max_cycle_d(gen_spoa_family(5))
        assert bound.value == 5
        assert bound.exact

    def test_nothing_flows_reports_zero(self):
        net = FinancialNetwork.build(["a", "b"], {}, [(0, "a", "b", 1)])
        bound = min_max_cycle_d(net)
        assert bound.value == 0
        assert bound.exact

    def test_source_paths_count_as_cycles(self):
        # External money entering and leaving closes through the source node.
        net = FinancialNetwork.build(["a", "b"], {"a": 2}, [(0, "a", "b", 1)])
        bound = min_max_cycle_d(net)
        assert bound.value == 3
        assert bound.exact


class TestWelfareMetrics:
    def test_dead_cycle_game_has_unbounded_anarchy(self):
        metrics = welfare_metrics(gen_poa_unbounded())
        assert metrics.opt_revenue == 2
        assert metrics.worst_eq_revenue == 0
        assert metrics.poa is UNBOUNDED
        assert metrics.pos == Fraction(1)
        assert metrics.spoa == Fraction(1)

    def test_ring_game_strong_anarchy_ratio(self):
        metrics = welfare_metrics(gen_spoa_family(4))
        assert metrics.spoa == Fraction(3)
        assert metrics.d_bound == 4

    def test_ring_with_shortcut_stability_ratio(self):
        metrics = welfare_metrics(gen_edge_spos_family(5, 10), compute_d=False)
        assert metrics.spos == Fraction(50, 22)


# ---------------------------------------------------------------------------
# Cross-cutting properties


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_optimal_strong_equilibrium_is_strong_and_accounts_exactly(seed):
    rng = random.Random(seed)
    net = random_net(rng, max_nodes=4, max_edges=6, max_weight=3)
    ose = optimal_strong_equilibrium(net)
    report = is_strong_equilibrium(net, ose.profile, space=SearchSpace.THRESHOLD)
    assert report.verdict is Verdict.STRONG
    assert report.exhaustive
    assert ose.revenue == ose.circulation.total() - net.total_external()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_profiles_starving_an_optimal_cycle_are_never_strong(seed):
    """If some optimal decomposition cycle carries no flow at all under a
    profile, its firms can jointly activate it, so the profile is not strong."""
    rng = random.Random(seed)
    net = random_net(rng, max_nodes=4, max_edges=6, max_weight=1, max_external=1)
    circ = build_circulation_network(net)
    fstar = max_value_circulation(circ)
    decomp = decompose_circulation(circ, fstar)
    real_ids = set(net.ids)
    real_cycles = [c for c in decomp.cycles if set(c) <= real_ids]
    if not real_cycles:
        return
    checked = 0
    for _ in range(8):
        profile = random_profile(rng, net)
        state = top_cycle_increase(net, profile)
        starved = [
            c for c in real_cycles if all(state.flows.get(e) == 0 for e in c)
        ]
        if not starved:
            continue
        checked += 1
        report = is_strong_equilibrium(net, profile, space=SearchSpace.THRESHOLD)
        assert report.verdict is Verdict.NOT_STRONG
    del checked  # zero probes is fine; the sampler decides


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_nash_witnesses_replay_exactly(seed):
    rng = random.Random(seed)
    net = random_net(rng, max_nodes=5, max_edges=7, max_weight=2)
    profile = random_profile(rng, net)
    report = is_nash(net, profile)
    if report.witness is None:
        return
    deviated = profile.replace(*report.witness.new_strategies.values())
    after = top_cycle_increase(net, deviated)
    for member in report.witness.coalition:
        assert after.assets[member] == report.witness.after[member]
        assert report.witness.after[member] > report.witness.before[member]


_NAMES = [f"n{i}" for i in range(1, 9)]
_WEIGHTS = st.one_of(st.integers(0, 3), st.integers(0, 2**40))


@st.composite
def _weighted_networks(draw) -> FinancialNetwork:
    """Up to 8 firms; repeated pairs give parallel edges, and zero weights occur."""
    names = _NAMES[: draw(st.integers(2, len(_NAMES)))]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda p: p[0] != p[1]
    )
    edges = draw(st.lists(st.tuples(pairs, _WEIGHTS), min_size=len(names), max_size=20))
    externals = draw(st.dictionaries(st.sampled_from(names), _WEIGHTS))
    return FinancialNetwork.build(
        names, externals, [(i, u, v, w) for i, ((u, v), w) in enumerate(edges)]
    )


def _network_simplex_optimum(circ) -> int:
    """Maximum total flow of the circulation network, by networkx's simplex."""
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(circ.nodes)
    for e in circ.edges:
        if e.weight is UNBOUNDED:
            graph.add_edge(e.src, e.dst, weight=-1)
        else:
            graph.add_edge(e.src, e.dst, capacity=e.weight, weight=-1)
    cost, _ = nx.network_simplex(graph)
    return -cost


@given(_weighted_networks())
@settings(max_examples=200, deadline=None)
def test_max_value_circulation_matches_network_simplex(net):
    circ = build_circulation_network(net)
    graph = reference_circulation(net)
    fstar = max_value_circulation(circ)
    assert fstar.total() == _network_simplex_optimum(graph)
    for e in graph.edges:
        assert fstar.get(e.id) >= 0
        if e.weight is not UNBOUNDED:
            assert fstar.get(e.id) <= e.weight
    check_conservation(circ, fstar)
    for e in graph.source_out:
        assert fstar.get(e.id) == e.weight


@given(_weighted_networks())
@settings(max_examples=200, deadline=None)
def test_max_value_circulation_returns_the_reference_optimum(net):
    """Not only the value: ``opt-se`` prints the thresholds of the optimum
    that is returned, so the per-phase arc lists must leave it unchanged."""
    circ = build_circulation_network(net)
    assert max_value_circulation(circ).flow == reference_max_value_circulation(circ).flow


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_no_d_bound_never_undercuts_the_exact_d(seed):
    """Without d, metrics reports the longest cycle of one decomposition of
    one optimum; the exact d minimizes over all of them, so it is no larger."""
    rng = random.Random(seed)
    net = random_net(rng, max_nodes=4, max_edges=6, max_weight=2)
    exact = min_max_cycle_d(net)
    if not exact.exact:
        return
    assert welfare_metrics(net, compute_d=False).d_bound >= exact.value


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_no_d_reports_the_canonical_decomposition(seed, externals):
    """Without d, metrics reports (0, exact) if f* carries nothing, else the
    longest cycle of f*'s canonical decomposition, flagged inexact."""
    rng = random.Random(seed)
    net = random_net(rng, max_nodes=4, max_edges=6, max_weight=2, max_external=4 if externals else 0)
    circ = build_circulation_network(net)
    fstar = max_value_circulation(circ)
    if fstar.total() == 0:
        expected = (0, True)
    else:
        expected = (decompose_circulation(circ, fstar).max_cycle_length(), False)
    metrics = welfare_metrics(net, compute_d=False)
    assert (metrics.d_bound, metrics.d_exact) == expected


def _boundary_case(fault: str) -> tuple[FinancialNetwork, dict]:
    """A 3-firm network and a profile whose strategy for ``a`` is at fault;
    ``b`` and ``c`` play valid strategies."""
    net = FinancialNetwork.build(
        ["a", "b", "c"],
        {"a": 1},
        [(0, "a", "b", 2), (1, "a", "c", 1), (2, "b", "a", 1), (3, "c", "a", 1)],
    )
    strategies = {"b": EdgeRankingStrategy("b", (2,)), "c": EdgeRankingStrategy("c", (3,))}
    strategies["a"] = {
        "not a permutation": EdgeRankingStrategy("a", (0,)),
        "threshold above weight": ThresholdRankingStrategy.of("a", (0, 1), {0: 3, 1: 0}),
        "not a ranking": (0, 1),
        "missing": None,
        "filed under another firm": EdgeRankingStrategy("b", (2,)),
    }[fault]
    return net, strategies


def _profile(strategies: dict) -> StrategyProfile:
    """The profile of the strategies that are not None."""
    return StrategyProfile({v: s for v, s in strategies.items() if s is not None})


_ENTRY_POINTS = {
    "top_cycle_increase": lambda net, p: top_cycle_increase(net, _profile(p)),
    "kleene_clearing": lambda net, p: kleene_clearing(net, _profile(p)),
    "best_response_exact": lambda net, p: best_response_exact(net, _profile(p), "b"),
    "is_nash": lambda net, p: is_nash(net, _profile(p)),
    "is_strong_equilibrium": lambda net, p: is_strong_equilibrium(net, _profile(p)),
    "enumerate_equilibria": lambda net, p: enumerate_equilibria(net, fixed={"a": p["a"]}),
    "welfare_metrics": lambda net, p: welfare_metrics(net, fixed={"a": p["a"]}),
    "welfare_metrics threshold space": lambda net, p: welfare_metrics(
        net, SearchSpace.THRESHOLD, fixed={"a": p["a"]}
    ),
    "compile_schedule": lambda net, p: clearing.compile_schedule(
        build_circulation_network(net), "a", p["a"]
    ),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "fault, error",
    [
        ("not a permutation", StrategyError),
        ("threshold above weight", StrategyError),
        ("not a ranking", ProfileError),
        ("missing", ProfileError),
        ("filed under another firm", ProfileError),
    ],
)
def test_invalid_profiles_are_rejected_at_the_boundary(entry, fault, error):
    """The clearing kernel checks no strategy, so every public entry point
    must reject a bad one before it clears. A missing strategy is an absent
    key in a profile and a None value in ``fixed``; a strategy filed under
    another firm is b's strategy given for a."""
    net, strategies = _boundary_case(fault)
    with pytest.raises(error):
        _ENTRY_POINTS[entry](net, strategies)


def test_enumeration_checks_each_given_strategy_once(monkeypatch):
    """A solvable 3DM decision gadget: thousands of profiles are cleared, but
    each fixed strategy is checked and compiled into a schedule once, in one
    pass, in ``_Game.__init__``, for the whole game; each candidate is checked
    and compiled once, in ``strategy_space``, whose segments become the
    searched options' schedules, so ``compile_schedule`` runs for given
    strategies only; no check runs anywhere else, no (firm, strategy) is
    compiled twice, and no clear builds a ``StrategyProfile``. A fixed firm
    searched for a deviation checks its given strategy again as one of its
    candidates. Calls are counted in every module that looks
    ``check_strategy`` or ``compile_schedule`` up, each with the function it
    ran under."""
    calls, compiled, within, charged = [], [], [], []
    for module in (clearing, equilibria):
        if hasattr(module, "check_strategy"):
            original = module.check_strategy

            def counted(strat, net, _original=original):
                calls.append((within[-1] if within else None, strat.owner, strat))
                return _original(strat, net)

            monkeypatch.setattr(module, "check_strategy", counted)
        if hasattr(module, "compile_schedule"):
            original = module.compile_schedule

            def counted_compile(circ, v, strat, _original=original):
                compiled.append((v, strat))
                return _original(circ, v, strat)

            monkeypatch.setattr(module, "compile_schedule", counted_compile)
    clearing_now, built_in_clear = [], []
    clear, init = equilibria._Game.clear, StrategyProfile.__init__
    game_init, space = equilibria._Game.__init__, equilibria.strategy_space

    def watched_clear(self, code):
        clearing_now.append(code)
        try:
            return clear(self, code)
        finally:
            clearing_now.pop()

    def counted_init(self, *args, **kwargs):
        if clearing_now:
            built_in_clear.append(clearing_now[-1])
        init(self, *args, **kwargs)

    def watched_game_init(self, *args, **kwargs):
        within.append("__init__")
        game_init(self, *args, **kwargs)
        within.pop()

    def watched_space(net, v, search_space, meter=None):
        within.append("strategy_space")
        used = meter.used
        kept = space(net, v, search_space, meter=meter)
        charged.append(meter.used - used)  # one charge per candidate
        within.pop()
        return kept

    monkeypatch.setattr(equilibria._Game, "clear", watched_clear)
    monkeypatch.setattr(equilibria._Game, "__init__", watched_game_init)
    monkeypatch.setattr(equilibria, "strategy_space", watched_space)
    monkeypatch.setattr(StrategyProfile, "__init__", counted_init)
    inst = ThreeDmInstance.of((1, 2, 3), [(1, 2, 3)])
    net, fixed, _ = gen_from_3dm(inst, ThreeDmVariant.DECISION)
    found = enumerate_equilibria(net, fixed=fixed, budget=SearchBudget(10**7))
    assert found.exhaustive and found.findings
    given = fixed.strategies
    in_init = [(v, strat) for where, v, strat in calls if where == "__init__"]
    assert sorted(v for v, _ in in_init) == sorted(given)
    assert all(strat == given[v] for v, strat in in_init)
    candidates = [(v, strat) for where, v, strat in calls if where == "strategy_space"]
    assert charged and len(candidates) == sum(charged)
    assert len(in_init) + len(candidates) == len(calls)  # no check elsewhere
    assert len(set(candidates)) == len(candidates)
    assert len(set(compiled)) == len(compiled)  # no (firm, strategy) compiled twice
    fixed_compiles = [v for v, strat in compiled if v in given and strat == given[v]]
    assert sorted(fixed_compiles) == sorted(given)
    assert all(strat == given.get(v) for v, strat in compiled)  # no searched option
    assert built_in_clear == []


def _games_and_kernel_runs(monkeypatch):
    """Every ``_Game`` built from here on, and a count of the kernel runs made
    through ``equilibria.clear_circulation`` (the closing check of a subset
    search runs ``clearing.cleared_state`` and is not counted)."""
    games, runs = [], [0]
    init, kernel = equilibria._Game.__init__, equilibria.clear_circulation

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        games.append(self)

    def counted(*args, **kwargs):
        runs[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(equilibria._Game, "__init__", recorded)
    monkeypatch.setattr(equilibria, "clear_circulation", counted)
    return games, runs


def test_block_clearing_runs_the_kernel_once_per_distinct_block_input(monkeypatch):
    """The 3DM decision gadget for one triple has three 9-firm element
    blocks, each holding 3 searched firms, and one-firm blocks around them.
    Its enumeration misses the table 512 times, but a block is cleared by
    the kernel only for an input (its members' schedules and the amounts
    entering them) that no earlier clear gave it. The meter is charged as
    before: once per strategy candidate (deg! for each edge-space tuple
    built) and once per table miss, 546 in all."""
    games, runs = _games_and_kernel_runs(monkeypatch)
    net, fixed, _ = gen_from_3dm(ThreeDmInstance.of((1, 2, 3), [(1, 2, 3)]), ThreeDmVariant.DECISION)
    found = enumerate_equilibria(net, fixed=fixed, budget=SearchBudget(10**7))
    (game,) = games
    assert found.exhaustive and found.findings
    assert sorted(len(members) for members, *_ in game.blocks if len(members) > 1) == [9, 9, 9]
    misses = len(game.table)
    candidates = sum(math.factorial(len(net.out_ids(v))) for v in game.options)
    assert game.meter.used == misses + candidates == 546
    assert 0 < runs[0] and 10 * runs[0] < misses


def test_a_one_block_game_runs_the_kernel_once_per_clear(monkeypatch):
    """Every firm of the SAT gadget lies on one cycle, so its one block
    holds every firm and keeps no memo: the subset search of the best
    response runs the kernel once per subset it charges, as the full clear
    does."""
    games, runs = _games_and_kernel_runs(monkeypatch)
    formula = SatFormula.of(5, [(1, 2, -3), (1, -2, 4), (3, -4), (2, -3, 4, 5)])
    net, profile, firm = gen_from_sat(formula)
    br = best_response_exact(net, profile, firm, budget=SearchBudget(max_candidates=10**7))
    (game,) = games
    ((members, _, memo, _),) = game.blocks
    assert len(members) == len(game.firms) and memo is None
    assert br.exhaustive and runs[0] == br.evaluated == 90
