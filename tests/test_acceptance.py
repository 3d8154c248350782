"""Acceptance suite: one test per shipped guarantee, exact values throughout.

Each test pins the behavior the package promises on concrete games: utility
tables of the hand-built gadgets, welfare ratios of the named families,
fixed-point oracle agreement on random instances, and the value identities of
the two hardness reductions. Everything is integer or Fraction arithmetic; no
tolerances. Where a pinned value is a clearing state, the test derives it from
the fixed-point equations and checks it against the Kleene oracles as well.
"""

from __future__ import annotations

import random
from fractions import Fraction

from finclear import (
    UNBOUNDED,
    EdgeRankingStrategy,
    KleeneStart,
    SatFormula,
    SearchBudget,
    SearchSpace,
    StrategyProfile,
    ThreeDmInstance,
    ThreeDmVariant,
    Verdict,
    best_response_exact,
    enumerate_equilibria,
    gen_edge_spos_family,
    gen_from_3dm,
    gen_from_sat,
    gen_no_nash,
    gen_poa_unbounded,
    gen_pos_unbounded,
    gen_spoa_family,
    is_strong_equilibrium,
    kleene_clearing,
    min_max_cycle_d,
    optimal_strong_equilibrium,
    oracle_exact_cover,
    oracle_max_sat,
    revenue,
    top_cycle_increase,
    welfare_metrics,
)
from finclear.core import build_circulation_network, total_liabilities
from finclear.equilibria import max_value_circulation
from _reference import ReferenceNetwork, active_segment, threshold_from_flows
from _samplers import random_net, random_profile, with_external


def _gates(fixed: StrategyProfile, hub, pgate, qgate) -> StrategyProfile:
    return fixed.replace(
        EdgeRankingStrategy("hub", hub),
        EdgeRankingStrategy("pgate", pgate),
        EdgeRankingStrategy("qgate", qgate),
    )


def _ascending_profile(net) -> StrategyProfile:
    return StrategyProfile.of(
        [EdgeRankingStrategy(v, tuple(net.out_ids(v))) for v in net.debtors()]
    )


def test_c01_gadget_utility_table_with_hub_fixed():
    """Hub pays its p branch first; the two gate firms' payoffs over their
    four ranking combinations reproduce the reference 2x2 table exactly."""
    net, fixed = gen_no_nash()
    cells = []
    for pgate in [(3, 4), (4, 3)]:
        for qgate in [(9, 10), (10, 9)]:
            profile = _gates(fixed, hub=(0, 6), pgate=pgate, qgate=qgate)
            state = top_cycle_increase(net, profile)
            cells.append((state.assets["pgate"], state.assets["qgate"]))
    assert cells == [(4, 4), (4, 3), (5, 2), (3, 3)]


def test_c02_gadget_has_no_pure_equilibrium():
    net, fixed = gen_no_nash()
    result = enumerate_equilibria(net, space=SearchSpace.EDGE, fixed=fixed)
    assert result.exhaustive
    assert result.findings == ()


def test_c03_seeded_gadget_utility_table_and_strong_profile():
    """With one external unit at the q sink and the q gate paying hub first,
    the hub/p-gate table is pinned cell by cell, and the hub-pays-q-first
    profile is a strong equilibrium.

    Fourth cell, hub=(6,0), pgate=(4,3): the q side returns qsink's unit and
    min(2, a) of the hub's assets a to the hub through qgate, on top of
    qgate's 2, so a = 3 + min(2, a), whose only solution is a = 5. The hub's
    surplus 1 reaches pgate through p1 and p2; pgate pays psink first and
    gets 1 back, so it holds 2 + 1 + 1 = 4. Kleene iteration from the top and
    from the bottom meet in every cell, so each cell is the unique clearing
    state. Against pgate=(4,3) the hub still strictly prefers (6,0): 5 > 3.
    """
    net, fixed = gen_no_nash()
    net = with_external(net, "qsink", 1)
    strong = _gates(fixed, hub=(6, 0), pgate=(3, 4), qgate=(9, 10))
    report = is_strong_equilibrium(net, strong)
    assert report.verdict is Verdict.STRONG
    assert report.exhaustive
    cells = []
    for hub in [(0, 6), (6, 0)]:
        for pgate in [(3, 4), (4, 3)]:
            profile = _gates(fixed, hub=hub, pgate=pgate, qgate=(9, 10))
            state = top_cycle_increase(net, profile)
            for start in (KleeneStart.TOP, KleeneStart.BOTTOM):
                assert kleene_clearing(net, profile, start=start).assets == state.assets
            cells.append((state.assets["hub"], state.assets["pgate"]))
    assert cells == [(9, 4), (3, 5), (9, 4), (5, 4)]


def test_c04_ring_family_strong_optimum_and_anarchy_ratio():
    for d in (3, 4, 5):
        net = gen_spoa_family(d)
        ose = optimal_strong_equilibrium(net)
        assert ose.revenue == (d - 1) * d
        central = _ascending_profile(net)
        report = is_strong_equilibrium(net, central)
        assert report.verdict is Verdict.STRONG
        assert report.exhaustive
        assert revenue(net, top_cycle_increase(net, central)) == d
        metrics = welfare_metrics(net)
        assert metrics.spoa == Fraction(d - 1)


def test_c05_cycle_bound_and_strong_equilibrium_revenue_floor():
    for d in (3, 4, 5):
        bound = min_max_cycle_d(gen_spoa_family(d))
        assert bound.value == d
        assert bound.exact
    checked = 0
    for seed in range(50):
        rng = random.Random(seed)
        # Unit weights keep the threshold space small enough to enumerate
        # exhaustively under the default budget.
        net = random_net(rng, max_nodes=5, max_edges=7, max_weight=1)
        bound = min_max_cycle_d(net)
        assert bound.exact
        circ = build_circulation_network(net)
        opt = max_value_circulation(circ).total() - net.total_external()
        found = enumerate_equilibria(
            net, space=SearchSpace.THRESHOLD, check_strong=True
        )
        assert found.exhaustive
        for finding in found.findings:
            if finding.report.verdict is not Verdict.STRONG:
                continue
            rev = revenue(net, finding.state)
            if bound.value == 0:
                assert rev == opt
            else:
                assert rev * bound.value >= opt
            checked += 1
    assert checked > 0


def test_c06_dead_cycle_game_has_unbounded_anarchy():
    net = gen_poa_unbounded()
    result = enumerate_equilibria(net)
    assert result.exhaustive and result.findings
    worst = min(revenue(net, f.state) for f in result.findings)
    assert worst == 0
    metrics = welfare_metrics(net)
    assert metrics.opt_revenue == 2
    assert metrics.poa is UNBOUNDED


def test_c07_ring_with_shortcut_stability_ratio():
    net = gen_edge_spos_family(5, 10)
    result = enumerate_equilibria(net)
    assert result.exhaustive
    revenues = {revenue(net, f.state) for f in result.findings}
    assert revenues == {22}
    metrics = welfare_metrics(net, compute_d=False)
    assert metrics.opt_revenue == 50
    assert metrics.spos == Fraction(50, 22)


def test_c08_external_inflow_family_equilibria_versus_optimum():
    """The family must have pure equilibria at every scale, equilibrium
    revenue independent of the scale, and an optimum growing with it.

    Each feeder owes psink more than m1's external assets, so a lone feeder
    that switches into the heavy cycle cannot sustain it: with the other
    feeder leaking first, m1's assets satisfy a = 2 + min(M-2, max(0, a-3)),
    whose only solution is a = 2. Every equilibrium starves the cycle, while
    the optimum saturates it for 3M + O(1).
    """
    revenues = {}
    optima = {}
    for scale in (10, 100):
        net = gen_pos_unbounded(scale)
        found = enumerate_equilibria(net)
        assert found.exhaustive
        assert found.findings, f"no pure equilibrium at scale {scale}"
        revenues[scale] = sorted(revenue(net, f.state) for f in found.findings)
        opt = welfare_metrics(net, compute_d=False)
        assert opt.exhaustive
        optima[scale] = opt.opt_revenue
    assert optima[100] >= 5 * optima[10]
    assert revenues[10] == revenues[100]


def test_c09_push_algorithm_matches_fixed_point_oracles():
    for seed in range(500):
        rng = random.Random(seed)
        net = random_net(rng)
        profile = random_profile(rng, net)
        pushed = top_cycle_increase(net, profile)
        from_top = kleene_clearing(net, profile, start=KleeneStart.TOP)
        assert pushed.assets == from_top.assets
        assert pushed.flows.flow == from_top.flows.flow
        from_bottom = kleene_clearing(net, profile, start=KleeneStart.BOTTOM)
        assert all(
            from_bottom.assets[v] <= pushed.assets[v] for v in net.nodes
        )


def test_c10_cycle_selection_order_never_changes_the_result():
    for seed in range(100):
        rng = random.Random(seed)
        net = random_net(rng)
        profile = random_profile(rng, net)
        reference = top_cycle_increase(net, profile)
        for sub in range(10):
            state = top_cycle_increase(
                net, profile, cycle_rng=random.Random(seed * 1000 + sub)
            )
            assert state.assets == reference.assets
            assert state.flows.flow == reference.flows.flow


def test_c11_solvent_irrelevance_and_threshold_sufficiency():
    for seed in range(200):
        rng = random.Random(seed)
        net = random_net(rng)
        profile = random_profile(rng, net)
        base = top_cycle_increase(net, profile)
        ref = ReferenceNetwork.of(net)
        for v in net.nodes:
            out = ref.out_edges(v)
            if not out:
                continue
            if base.assets[v] >= total_liabilities(net, v):
                # Solvent: any reordering pays everything anyway.
                flipped = EdgeRankingStrategy(
                    v, tuple(sorted((e.id for e in out), reverse=True))
                )
                after = top_cycle_increase(net, profile.replace(flipped))
            else:
                # Insolvent: rebuild the strategy from its observed payments,
                # topped by the edge its schedule is actually mid-way through.
                paid = sum(base.flows.get(e.id) for e in out)
                cursor = active_segment(profile.strategy_for(v), net, paid)
                rebuilt = threshold_from_flows(v, net, base, cursor.active_edge)
                after = top_cycle_increase(net, profile.replace(rebuilt))
            assert after.assets == base.assets
            assert after.flows.flow == base.flows.flow


def _random_formula(rng: random.Random) -> SatFormula:
    num_vars = rng.randint(1, 3)
    clauses = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, num_vars)
        chosen = rng.sample(range(1, num_vars + 1), size)
        clauses.append(tuple(var * rng.choice((-1, 1)) for var in chosen))
    return SatFormula.of(num_vars, clauses)


def test_c12_formula_reduction_value_identity():
    budget = SearchBudget(max_candidates=10**7)
    worked = SatFormula.of(
        5, [(1, 2, -3), (1, -2, 4), (3, -4), (2, -3, 4, 5)]
    )
    for formula in [worked] + [_random_formula(random.Random(s)) for s in range(50)]:
        net, profile, firm = gen_from_sat(formula)
        br = best_response_exact(net, profile, firm, budget=budget)
        assert br.exhaustive
        assert br.value == formula.num_vars + oracle_max_sat(formula)


def test_c13_matching_reduction_value_and_equilibrium_existence():
    budget = SearchBudget(max_candidates=10**7)
    cases = [
        ((1, 2, 3), [(1, 2, 3)]),
        ((1, 2, 3), [(1, 2, 3), (1, 1, 2)]),
        ((1, 2, 3), [(1, 2, 3), (1, 2, 2), (2, 3, 3)]),
        ((1, 2, 3), [(1, 1, 2)]),
        ((1, 2, 3), [(1, 1, 1)]),
        ((1, 2, 3), [(1, 2, 2), (2, 3, 3)]),
    ]
    covers = 0
    for elements, triples in cases:
        inst = ThreeDmInstance.of(elements, triples)
        has_cover = oracle_exact_cover(inst)
        covers += bool(has_cover)
        net, profile, firm = gen_from_3dm(inst, ThreeDmVariant.BEST_RESPONSE)
        br = best_response_exact(net, profile, firm, budget=budget)
        assert br.exhaustive
        assert (br.value == 3 * inst.k) == has_cover
        dnet, dfixed, _ = gen_from_3dm(inst, ThreeDmVariant.DECISION)
        found = enumerate_equilibria(dnet, fixed=dfixed, budget=budget)
        assert found.exhaustive
        assert bool(found.findings) == has_cover
    assert covers == 3  # three solvable, three unsolvable


def test_c14_optimal_strong_equilibrium_identity():
    shapes = [(seed, 5, 7, 2) for seed in range(60)]
    shapes += [(1000 + seed, 4, 6, 3) for seed in range(40)]
    for seed, nodes, edges, weight in shapes:
        rng = random.Random(seed)
        net = random_net(rng, max_nodes=nodes, max_edges=edges, max_weight=weight)
        ose = optimal_strong_equilibrium(net)
        report = is_strong_equilibrium(
            net, ose.profile, space=SearchSpace.THRESHOLD
        )
        assert report.verdict is Verdict.STRONG
        assert report.exhaustive
        assert ose.revenue == ose.circulation.total() - net.total_external()
