"""Tests of the benchmark's reference checkers on tiny hand-made cases.

Each checker accepts a correct output and rejects at least one wrong one.
Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import checkers as ck
import workloads
from workloads import _doc


def _edge_ranking(owner, *ranking):
    return {"owner": owner, "kind": "edge-ranking", "ranking": list(ranking)}


# a owes b 2, b owes c 2 and a 1, c owes a 2; a holds 1. The hub a gets
# 1 + min(2, a_c) with a_c = a_b = 2, so the maximal state is (3, 2, 2).
TRIANGLE = _doc(
    {"a": 1, "b": 0, "c": 0},
    [("a", "b", 2), ("b", "c", 2), ("c", "a", 2), ("b", "a", 1)],
    [_edge_ranking("a", 0), _edge_ranking("b", 1, 3), _edge_ranking("c", 2)],
)

# An unfunded 2-cycle: (0, 0) is a fixed point, (1, 1) the greatest one.
TWO_CYCLE = _doc({"u": 0, "v": 0}, [("u", "v", 1), ("v", "u", 1)],
                 [_edge_ranking("u", 0), _edge_ranking("v", 1)])


def test_clear_accepts_the_maximal_state():
    out = "a_a = 3\na_b = 2\na_c = 2\nrevenue = 7\n"
    assert ck.check_clear(TRIANGLE, out) == []


def test_clear_rejects_a_smaller_fixed_point_a_non_fixed_point_and_a_wrong_sum():
    least = ck.check_clear(TWO_CYCLE, "a_u = 0\na_v = 0\nrevenue = 0\n")
    assert least == ["2 firms differ from the greatest fixed point"]
    assert "not a fixed point" in ck.check_clear(TWO_CYCLE, "a_u = 1\na_v = 0\nrevenue = 1\n")[0]
    assert ck.check_clear(TWO_CYCLE, "a_u = 1\na_v = 1\nrevenue = 3\n") == [
        "revenue is not the sum of assets"
    ]


def test_threshold_ranking_pays_thresholds_then_remainders():
    doc = _doc(
        {"a": 3, "b": 0, "c": 0}, [("a", "b", 2), ("a", "c", 2)],
        [{"owner": "a", "kind": "threshold", "ranking": [0, 1], "thresholds": {"0": 1, "1": 1}}],
    )
    game = ck.RankingGame(doc)
    assert game.as_dict(game.greatest_fixed_point()) == {"a": 3, "b": 2, "c": 1}


def test_pro_rata_closed_forms():
    assert ck.pro_rata_greatest(workloads.LEAKY_CYCLE) == workloads.LEAKY_CYCLE_ASSETS
    assert ck.pro_rata_greatest(workloads.PRO_RATA_DAG) == workloads.PRO_RATA_DAG_ASSETS


def test_pro_rata_ring_solution_is_a_fixed_point_of_the_proportional_map():
    ring = workloads.ring_plus_random(random.Random("pro-rata ring"), 8, 50, 5, strategies=False)
    held = ck.pro_rata_greatest(ring)
    owed = {n["id"]: 0 for n in ring["nodes"]}
    for e in ring["edges"]:
        owed[e["src"]] += e["weight"]
    again = {n["id"]: Fraction(n["external"]) for n in ring["nodes"]}
    for e in ring["edges"]:
        pay = min(Fraction(owed[e["src"]]), held[e["src"]])
        again[e["dst"]] += pay * e["weight"] / owed[e["src"]]
    assert again == held
    assert any(held[v] < owed[v] for v in owed)  # some firm defaults


def test_check_pro_rata_rejects_an_unconverged_approximation():
    good = "a_s = 1/1\na_u = 2/1\na_v = 2/1\nrevenue = 5/1\nconverged = true\n"
    assert ck.check_pro_rata(workloads.LEAKY_CYCLE_ASSETS, good) == []
    approx = "a_s = 1025/1024\na_u = 1025/512\na_v = 1025/512\nrevenue = 5125/1024\nconverged = false\n"
    assert len(ck.check_pro_rata(workloads.LEAKY_CYCLE_ASSETS, approx)) == 5


def test_optimal_revenue_and_opt_se():
    cycle = _doc({"u": 0, "v": 0}, [("u", "v", 3), ("v", "u", 3)])
    assert ck.optimal_revenue(cycle) == 6
    good = ("revenue = 6\nstrategy u = threshold ranking=[0] thresholds=[0:3]\n"
            "strategy v = threshold ranking=[1] thresholds=[1:3]\n")
    assert ck.check_opt_se(cycle, good) == []
    short = ("revenue = 4\nstrategy u = threshold ranking=[0] thresholds=[0:2]\n"
             "strategy v = threshold ranking=[1] thresholds=[1:2]\n")
    assert ck.check_opt_se(cycle, short) == ["revenue 4, optimum is 6"]
    # One unit more on u's edge than v sends back is no clearing state.
    skew = ("revenue = 6\nstrategy u = threshold ranking=[0] thresholds=[0:3]\n"
            "strategy v = threshold ranking=[1] thresholds=[1:2]\n")
    assert "not a clearing state" in ck.check_opt_se(cycle, skew)[0]
    funded = _doc({"a": 2, "b": 0}, [("a", "b", 5)])
    assert ck.optimal_revenue(funded) == 4


def test_exact_cover_and_max_sat():
    assert ck.exact_cover([1, 2, 3], [(1, 2, 3)])
    assert not ck.exact_cover([1, 2, 3], [(1, 1, 2)])
    assert not ck.exact_cover([1, 2, 3], [(1, 2, 2), (2, 3, 3)])
    assert ck.exact_cover(range(1, 7), [(1, 2, 4), (3, 5, 6), (1, 3, 5)])
    assert not ck.exact_cover(range(1, 7), [(1, 2, 4), (2, 5, 6), (1, 3, 5)])
    assert ck.max_sat(1, [(1,), (-1,)]) == 1
    assert ck.max_sat(2, [(1, 2), (-1,), (-2,)]) == 2


POA = workloads.POA_WITH_F2  # f1 -> f3 (0), f2 -> f4 (1), f1 -> f2 (2), f2 -> f1 (3)


def test_nash_problems_finds_the_profitable_deviation():
    mutual = ck.with_strategies(POA, {"f1": _edge_ranking("f1", 2, 0)})
    assert ck.nash_problems(POA, mutual) == []
    # f1 paying f3 first earns 0, while ranking f2 first earns 1.
    leaking = ck.with_strategies(POA, {"f1": _edge_ranking("f1", 0, 2)})
    assert ck.nash_problems(POA, leaking) == ["f1 gains by ranking [2, 0]"]


def test_check_enumerate_ties_existence_to_exact_cover():
    net = {"nodes": POA["nodes"], "edges": POA["edges"], "strategies": []}
    listed = ("1 equilibrium\nequilibrium 1: revenue = 2\n"
              "  f1: edge-ranking ranking=[2,0]\n  f2: edge-ranking ranking=[3,1]\n")
    assert ck.check_enumerate_3dm(net, listed, has_cover=True) == []
    assert ck.check_enumerate_3dm(net, "0 equilibria\n", has_cover=True) == [
        "0 equilibria listed, exact cover exists"
    ]
    not_nash = listed.replace("ranking=[2,0]", "ranking=[0,2]").replace("revenue = 2", "revenue = 0")
    assert ck.check_enumerate_3dm(net, not_nash, has_cover=True) == ["f1 gains by ranking [2, 0]"]


def test_best_response_by_brute_force():
    assert ck.check_best_response(POA, "f1", "value = 1\nstrategy = x\nexhaustive = true\n") == []
    assert ck.check_best_response(POA, "f1", "value = 0\nstrategy = x\nexhaustive = true\n") == [
        "value = 0, expected 1"
    ]


# The formula reduction for the one-clause formula (x1), laid out as the
# generator documents it: pool -> starters, pool -> chain firms, the chains,
# the collector and the clause firm. pool's best response earns 1 + 1.
SAT_X1 = _doc(
    {v: 0 for v in ("pool", "st1.0", "st1.1", "ch1.1.0", "ch1.1.1", "col1", "cl1")},
    [("pool", "st1.0", 1), ("pool", "st1.1", 1), ("pool", "ch1.1.0", 1), ("pool", "ch1.1.1", 1),
     ("st1.0", "ch1.1.0", 1), ("ch1.1.0", "col1", 1), ("st1.1", "ch1.1.1", 1),
     ("ch1.1.1", "col1", 1), ("col1", "pool", 1), ("ch1.1.1", "cl1", 1), ("cl1", "pool", 1)],
    [_edge_ranking("st1.0", 4), _edge_ranking("st1.1", 6), _edge_ranking("ch1.1.0", 5),
     _edge_ranking("ch1.1.1", 7, 9), _edge_ranking("col1", 8), _edge_ranking("cl1", 10)],
)


def test_check_best_response_sat():
    good = "value = 2\nstrategy = edge-ranking ranking=[1,3,0,2]\nexhaustive = true\n"
    assert ck.check_best_response_sat(SAT_X1, good, 1, [(1,)]) == []
    # Committing x1 false satisfies nothing: the ranking earns 1, not 2.
    wrong = "value = 2\nstrategy = edge-ranking ranking=[0,2,1,3]\nexhaustive = true\n"
    assert ck.check_best_response_sat(SAT_X1, wrong, 1, [(1,)]) == [
        "the printed ranking does not earn the printed value"
    ]


def test_check_dot():
    doc = _doc({"a": 2, "b": 0}, [("a", "b", 5)])
    good = ('digraph liabilities {\n  rankdir=LR;\n  "a" [shape=ellipse];\n'
            '  "external:a" [shape=box, label="2"];\n  "external:a" -> "a" [style=dashed];\n'
            '  "b" [shape=ellipse];\n  "a" -> "b" [label="5"];\n}\n')
    assert ck.check_dot(doc, good) == []
    assert ck.check_dot(doc, good.replace('label="5"', 'label="4"')) == [
        "the drawn edges or weights differ from the document"
    ]
    assert ck.check_dot(doc, good.replace('label="2"', 'label="1"')) == [
        "external assets of a are not drawn"
    ]


def test_well_formed_and_values():
    assert ck.well_formed_problems(json.dumps(TRIANGLE)) == []
    bad = json.loads(json.dumps(TRIANGLE))
    bad["edges"][0]["dst"] = "zz"
    assert ck.well_formed_problems(json.dumps(bad)) == ["edge 0 has a bad endpoint"]
    assert ck.check_values("opt = 42\nd = 7\n", {"opt": "42", "d": "7"}) == []
    assert ck.check_values("opt = 42\nd = 8\n", {"opt": "42", "d": "7"}) == ["d = 8, expected 7"]


def test_closed_forms_match_the_acceptance_suite():
    assert ck.edge_spos_metrics(5, 10)["spos"] == "25/11"  # 50/22, test_c07
    assert ck.spoa_family_metrics(7)["opt"] == "42"
    assert ck.pos_unbounded_metrics(100)["pos"] == "166/19"


def test_same_seed_same_inputs(tmp_path):
    first, second = tmp_path / "1", tmp_path / "2"
    first.mkdir()
    second.mkdir()
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, first)
        b = workloads.build(name, 7, second)
        assert [(j.label, j.stdin) for j in a] == [(j.label, j.stdin) for j in b]
    for path in first.iterdir():
        assert path.read_bytes() == (second / path.name).read_bytes()

