"""Instance families: gadget shapes, oracles, and reduction soundness."""

from __future__ import annotations

import random

import pytest

from finclear import (
    EdgeRankingStrategy,
    FinclearError,
    SatFormula,
    SearchBudget,
    SearchSpace,
    ThreeDmInstance,
    ThreeDmVariant,
    best_response_exact,
    enumerate_equilibria,
    gen_edge_spos_family,
    gen_from_3dm,
    gen_from_sat,
    gen_no_nash,
    gen_poa_unbounded,
    gen_pos_unbounded,
    gen_spoa_family,
    oracle_exact_cover,
    oracle_max_sat,
    validate_network,
    welfare_metrics,
)


def _families():
    yield gen_no_nash()[0]
    yield gen_spoa_family(2)
    yield gen_spoa_family(4)
    yield gen_poa_unbounded()
    yield gen_edge_spos_family(3, 1)
    yield gen_edge_spos_family(6, 7)
    yield gen_pos_unbounded(5)
    yield gen_from_sat(SatFormula.of(2, [(1, -2), (2,)]))[0]
    yield gen_from_3dm(
        ThreeDmInstance.of((1, 2, 3), [(1, 2, 3)]), ThreeDmVariant.BEST_RESPONSE
    )[0]
    yield gen_from_3dm(
        ThreeDmInstance.of((1, 2, 3), [(1, 2, 3)]), ThreeDmVariant.DECISION
    )[0]


@pytest.mark.parametrize(
    "net", list(_families()), ids=lambda n: f"{len(n.nodes)}n{len(n.ids)}e"
)
def test_every_family_builds_a_valid_network(net):
    assert validate_network(net).ok


class TestGadgetShapes:
    def test_no_nash_gadget(self):
        net, fixed = gen_no_nash()
        assert len(net.nodes) == 9 and len(net.ids) == 12
        # Only the two gate firms hold external assets; single-creditor firms
        # have their (forced) strategies pinned in the profile.
        assert {v: net.external(v) for v in net.nodes if net.external(v)} == {
            "pgate": 2,
            "qgate": 2,
        }
        assert len(fixed.strategies) == 6
        assert all(len(net.out_ids(v)) == 1 for v in fixed.strategies)

    def test_ring_game_sizes(self):
        # d central firms plus d-1 peripheral chains of d-2 firms each.
        for d in (3, 4, 5):
            net = gen_spoa_family(d)
            assert len(net.nodes) == d + (d - 1) * (d - 2)
        assert len(gen_spoa_family(2).ids) == 3

    def test_parameter_floors(self):
        with pytest.raises(ValueError):
            gen_spoa_family(1)
        with pytest.raises(ValueError):
            gen_edge_spos_family(2, 1)
        with pytest.raises(ValueError):
            gen_pos_unbounded(2)

    def test_ring_with_shortcut_shape(self):
        net = gen_edge_spos_family(5, 10)
        assert net.weights.count(11) == 3  # both r1 edges and the ring edge closing at r1
        assert len(net.ids) == 6

    def test_tiny_shortcut_game_has_no_welfare_gap(self):
        metrics = welfare_metrics(gen_edge_spos_family(4, 1), compute_d=False)
        assert metrics.spos == 1


class TestSatFormula:
    def test_literal_zero_rejected(self):
        with pytest.raises(ValueError):
            SatFormula.of(1, [(0,)])

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ValueError):
            SatFormula.of(1, [(2,)])

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            SatFormula.of(1, [()])

    def test_repeated_literals_collapse_but_clauses_do_not(self):
        f = SatFormula.of(2, [(1, 1, -2), (1, -2)])
        assert f.clauses == ((1, -2), (1, -2))
        assert f.num_clauses == 2


class TestOracles:
    def test_contradiction_satisfies_exactly_one_clause(self):
        assert oracle_max_sat(SatFormula.of(1, [(1,), (-1,)])) == 1

    def test_satisfiable_formula_reaches_every_clause(self):
        f = SatFormula.of(3, [(1, -2), (2, 3), (-1, -3), (3,)])
        assert oracle_max_sat(f) == 4

    def test_variable_cap_guards_the_truth_table(self):
        wide = SatFormula.of(25, [(1,)])
        with pytest.raises(FinclearError):
            oracle_max_sat(wide)

    def test_exact_cover_found_for_a_partition(self):
        inst = ThreeDmInstance.of(
            (1, 2, 3, 4, 5, 6), [(1, 2, 3), (4, 5, 6), (1, 4, 5)]
        )
        assert oracle_exact_cover(inst)

    def test_no_cover_from_overlapping_triples(self):
        inst = ThreeDmInstance.of((1, 2, 3, 4, 5, 6), [(1, 2, 3), (3, 4, 5)])
        assert not oracle_exact_cover(inst)

    def test_no_triples_means_no_cover(self):
        assert not oracle_exact_cover(ThreeDmInstance.of((1, 2, 3), []))

    def test_element_count_must_be_divisible_by_three(self):
        with pytest.raises(ValueError):
            ThreeDmInstance.of((1, 2), [])


class TestSatReduction:
    def test_pool_best_response_counts_satisfied_clauses(self):
        f = SatFormula.of(2, [(1, -2), (2,)])
        net, profile, pool = gen_from_sat(f)
        br = best_response_exact(net, profile, pool, budget=SearchBudget(10**7))
        assert br.exhaustive
        assert br.value == f.num_vars + oracle_max_sat(f)

    @pytest.mark.parametrize("seed", range(4))
    def test_value_matches_the_oracle_on_random_formulas(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 2)
        m = rng.randint(1, 2)
        clauses = []
        for _ in range(m):
            size = rng.randint(1, n)
            lits = rng.sample(range(1, n + 1), size)
            clauses.append(tuple(lit * rng.choice((-1, 1)) for lit in lits))
        f = SatFormula.of(n, clauses)
        net, profile, pool = gen_from_sat(f)
        br = best_response_exact(net, profile, pool, budget=SearchBudget(10**7))
        assert br.exhaustive
        assert br.value == n + oracle_max_sat(f)


class TestThreeDmReduction:
    def test_cover_yields_the_full_harvest(self):
        inst = ThreeDmInstance.of((1, 2, 3), [(1, 2, 3)])
        net, profile, pool = gen_from_3dm(inst, ThreeDmVariant.BEST_RESPONSE)
        br = best_response_exact(net, profile, pool, budget=SearchBudget(10**7))
        assert br.exhaustive
        assert br.value == 3 * inst.k

    def test_overlap_blocks_the_full_harvest(self):
        inst = ThreeDmInstance.of((1, 2, 3, 4, 5, 6), [(1, 2, 3), (3, 4, 5)])
        net, profile, pool = gen_from_3dm(inst, ThreeDmVariant.BEST_RESPONSE)
        br = best_response_exact(net, profile, pool, budget=SearchBudget(10**7))
        assert br.exhaustive
        assert br.value < 6

    def test_decision_variant_equilibria_track_cover_existence(self):
        solvable = ThreeDmInstance.of((1, 2, 3), [(1, 2, 3)])
        net, fixed, _ = gen_from_3dm(solvable, ThreeDmVariant.DECISION)
        found = enumerate_equilibria(net, fixed=fixed, budget=SearchBudget(10**7))
        assert found.exhaustive
        assert found.findings
