"""Document format, canonical serialization, DOT export, and the CLI."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finclear import cli, clearing, core, io as finclear_io, strategies as finclear_strategies
from finclear.cli import _fmt

from finclear import (
    UNBOUNDED,
    EdgeRankingStrategy,
    FinancialNetwork,
    LiabilityEdge,
    ParseError,
    StrategyProfile,
    ThresholdRankingStrategy,
    load_document,
    parse_document,
    render_document,
    render_dot,
    validate_network,
)
from finclear.core import FinclearError, UnknownNodeError
from finclear.strategies import payment_segments
from _reference import (
    ReferenceNetwork,
    reference_parse_document,
    reference_payment_segments,
    reference_violations,
)
from _samplers import random_net, random_profile


def sample_document() -> str:
    net = FinancialNetwork.build(
        ["a", "b", "c"],
        {"a": 2, "c": 1},
        [(0, "a", "b", 3), (1, "b", "c", 2), (2, "c", "a", 1)],
    )
    profile = StrategyProfile.of(
        [
            EdgeRankingStrategy("a", (0,)),
            ThresholdRankingStrategy.of("b", (1,), {1: 1}),
            EdgeRankingStrategy("c", (2,)),
        ]
    )
    return render_document(net, profile)


class TestParse:
    def test_round_trip_is_byte_stable(self):
        text = sample_document()
        doc = parse_document(text)
        assert render_document(doc.network, doc.profile) == text

    def test_save_load_round_trip(self, tmp_path):
        text = sample_document()
        doc = parse_document(text)
        path = tmp_path / "net.json"
        path.write_text(render_document(doc.network, doc.profile), encoding="utf-8")
        again = load_document(path)
        assert render_document(again.network, again.profile) == text

    def test_json_errors_carry_position(self):
        with pytest.raises(ParseError, match=r"line 1, column 9"):
            parse_document('{"nodes"')

    def test_unknown_top_level_field(self):
        with pytest.raises(ParseError, match="unknown field 'extra'"):
            parse_document('{"nodes": [], "edges": [], "extra": 1}')

    def test_unknown_node_field(self):
        with pytest.raises(ParseError, match="nodes\\[0\\]"):
            parse_document('{"nodes": [{"id": "a", "ext": 1}], "edges": []}')

    def test_duplicate_node_id(self):
        text = json.dumps(
            {"nodes": [{"id": "a", "external": 0}, {"id": "a", "external": 1}], "edges": []}
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_document(text)

    def test_weight_must_be_an_integer_or_unbounded(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}, {"id": "b", "external": 0}],
                "edges": [{"id": 0, "src": "a", "dst": "b", "weight": "3"}],
            }
        )
        with pytest.raises(ParseError, match="weight"):
            parse_document(text)

    def test_boolean_is_not_money(self):
        text = json.dumps({"nodes": [{"id": "a", "external": True}], "edges": []})
        with pytest.raises(ParseError):
            parse_document(text)

    def test_unbounded_literal_parses_then_fails_validation(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}, {"id": "b", "external": 0}],
                "edges": [{"id": 0, "src": "a", "dst": "b", "weight": "unbounded"}],
            }
        )
        doc = parse_document(text)
        assert doc.network.weights[doc.network.slot[0]] is UNBOUNDED
        report = validate_network(doc.network)
        assert "unbounded-weight" in {v.code for v in report.violations}

    def test_total_weight_cap(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}, {"id": "b", "external": 0}],
                "edges": [{"id": 0, "src": "a", "dst": "b", "weight": 2**62 + 1}],
            }
        )
        with pytest.raises(ParseError, match="exceeds"):
            parse_document(text)

    def test_unknown_strategy_kind(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}],
                "edges": [],
                "strategies": [{"owner": "a", "kind": "pro-rata", "ranking": []}],
            }
        )
        with pytest.raises(ParseError, match="kind"):
            parse_document(text)

    def test_strategy_must_fit_the_network(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}, {"id": "b", "external": 0}],
                "edges": [{"id": 0, "src": "a", "dst": "b", "weight": 1}],
                "strategies": [{"owner": "a", "kind": "edge-ranking", "ranking": [0, 1]}],
            }
        )
        with pytest.raises(ParseError, match="permutation"):
            parse_document(text)


def _node(**fields):
    return {"id": "a", "external": 1, **fields}


def _edge(**fields):
    return {"id": 0, "src": "a", "dst": "b", "weight": 3, **fields}


def _document(nodes=None, edges=None, strategies=None, **extra) -> str:
    """A two-firm document (a owes b 3 on edge 0) with parts replaced."""
    doc = {
        "nodes": [_node(), {"id": "b", "external": 0}] if nodes is None else nodes,
        "edges": [_edge()] if edges is None else edges,
        "strategies": [] if strategies is None else strategies,
        **extra,
    }
    return json.dumps(doc)


def _ranking(**fields):
    return {"owner": "a", "kind": "edge-ranking", "ranking": [0], **fields}


def _threshold(**fields):
    return {"owner": "a", "kind": "threshold", "ranking": [0], "thresholds": {"0": 1}, **fields}


def _without(entry: dict, *names: str) -> dict:
    return {k: v for k, v in entry.items() if k not in names}


B = {"id": "b", "external": 0}
CAP = "document: total weight plus external assets exceeds 2^62 (4611686018427387904)"

# Every ParseError site of parse_document, with the full message. Where an
# entry has two faults, the one the loader checks first is reported: for a
# node or an edge, unknown fields, then the fields in order; for a strategy,
# kind, owner and ranking, then unknown fields, then thresholds.
PARSE_ERRORS = [
    ("json", '{"nodes"', "line 1, column 9: Expecting ':' delimiter"),
    ("document not an object", "[]", "document: expected an object, got list"),
    ("document unknown field", _document(extra=1), "document: unknown field 'extra'"),
    ("document unknown fields, first sorted", _document(zz=1, aa=2),
     "document: unknown field 'aa'"),
    ("nodes missing", json.dumps({"edges": []}), "nodes: expected an array, got NoneType"),
    ("nodes not an array", _document(nodes={}), "nodes: expected an array, got dict"),
    ("node not an object", _document(nodes=[B, 3]), "nodes[1]: expected an object, got int"),
    ("node unknown field", _document(nodes=[_node(ext=1), B]), "nodes[0]: unknown field 'ext'"),
    ("node id missing", _document(nodes=[_without(_node(), "id"), B]),
     "nodes[0].id: expected a string, got NoneType"),
    ("node id not a string", _document(nodes=[_node(id=7), B]),
     "nodes[0].id: expected a string, got int"),
    ("node external missing", _document(nodes=[_without(_node(), "external"), B]),
     "nodes[0].external: expected an integer, got NoneType"),
    ("node external bool", _document(nodes=[_node(external=True), B]),
     "nodes[0].external: expected an integer, got bool"),
    ("node external float", _document(nodes=[_node(external=1.0), B]),
     "nodes[0].external: expected an integer, got float"),
    ("node external string", _document(nodes=[_node(external="1"), B]),
     "nodes[0].external: expected an integer, got str"),
    ("node duplicate", _document(nodes=[_node(), B, _node(external=2)]),
     "nodes[2].id: duplicate node 'a'"),
    ("node unknown field before bad id", _document(nodes=[_node(id=7, ext=1), B]),
     "nodes[0]: unknown field 'ext'"),
    ("node unknown fields, first sorted", _document(nodes=[_node(zz=1, aa=1), B]),
     "nodes[0]: unknown field 'aa'"),
    ("node bad id before bad external", _document(nodes=[_node(id=None, external="x"), B]),
     "nodes[0].id: expected a string, got NoneType"),
    ("node bad external before duplicate", _document(nodes=[_node(), B, _node(external=None)]),
     "nodes[2].external: expected an integer, got NoneType"),
    ("node fault before edge fault", _document(nodes=[_node(external=None), B], edges=[5]),
     "nodes[0].external: expected an integer, got NoneType"),
    ("edges not an array", _document(edges={}), "edges: expected an array, got dict"),
    ("edge not an object", _document(edges=[_edge(), []]),
     "edges[1]: expected an object, got list"),
    ("edge unknown field", _document(edges=[_edge(cost=1)]), "edges[0]: unknown field 'cost'"),
    ("edge id missing", _document(edges=[_without(_edge(), "id")]),
     "edges[0].id: expected an integer, got NoneType"),
    ("edge id string", _document(edges=[_edge(id="0")]),
     "edges[0].id: expected an integer, got str"),
    ("edge id bool", _document(edges=[_edge(id=False)]),
     "edges[0].id: expected an integer, got bool"),
    ("edge src not a string", _document(edges=[_edge(src=1)]),
     "edges[0].src: expected a string, got int"),
    ("edge dst missing", _document(edges=[_without(_edge(), "dst")]),
     "edges[0].dst: expected a string, got NoneType"),
    ("edge weight string", _document(edges=[_edge(weight="3")]),
     "edges[0].weight: expected an integer, got str"),
    ("edge weight float", _document(edges=[_edge(weight=3.0)]),
     "edges[0].weight: expected an integer, got float"),
    ("edge weight bool", _document(edges=[_edge(weight=True)]),
     "edges[0].weight: expected an integer, got bool"),
    ("edge weight missing", _document(edges=[_without(_edge(), "weight")]),
     "edges[0].weight: expected an integer, got NoneType"),
    ("edge weight negative", _document(edges=[_edge(weight=-1)]),
     "edges[0].weight: weight must be non-negative"),
    ("edge unknown field before bad id", _document(edges=[_edge(id="x", cost=1)]),
     "edges[0]: unknown field 'cost'"),
    ("edge unknown field in place of weight", _document(edges=[_without(_edge(cost=1), "weight")]),
     "edges[0]: unknown field 'cost'"),
    ("edge bad id before bad weight", _document(edges=[_edge(id=None, weight=-1)]),
     "edges[0].id: expected an integer, got NoneType"),
    ("edge bad src before bad dst", _document(edges=[_edge(src=None, dst=None)]),
     "edges[0].src: expected a string, got NoneType"),
    ("edge bad dst before bad weight", _document(edges=[_edge(dst=2, weight="heavy")]),
     "edges[0].dst: expected a string, got int"),
    ("edge fault before the cap", _document(edges=[_edge(weight=2**62), _edge(id=1, weight="x")]),
     "edges[1].weight: expected an integer, got str"),
    ("cap on weights",
     _document(nodes=[_node(external=0), B],
               edges=[_edge(weight=2**61), _edge(id=1, weight=2**61 + 1)]),
     CAP),
    ("cap on weights and externals", _document(edges=[_edge(weight=2**62)]), CAP),
    ("cap before strategy faults", _document(edges=[_edge(weight=2**62)], strategies=[5]), CAP),
    ("strategies not an array", _document(strategies={}),
     "strategies: expected an array, got dict"),
    ("strategy not an object", _document(strategies=["a"]),
     "strategies[0]: expected an object, got str"),
    ("strategy kind missing", _document(strategies=[_without(_ranking(), "kind")]),
     "strategies[0].kind: expected a string, got NoneType"),
    ("strategy owner not a string", _document(strategies=[_ranking(owner=["a"])]),
     "strategies[0].owner: expected a string, got list"),
    ("strategy ranking not an array", _document(strategies=[_ranking(ranking=0)]),
     "strategies[0].ranking: expected an array, got int"),
    ("strategy ranking entry bool", _document(strategies=[_ranking(ranking=[0, True])]),
     "strategies[0].ranking[1]: expected an integer, got bool"),
    ("edge-ranking unknown field", _document(strategies=[_ranking(thresholds={})]),
     "strategies[0]: unknown field 'thresholds'"),
    ("threshold unknown field", _document(strategies=[_threshold(extra=1)]),
     "strategies[0]: unknown field 'extra'"),
    ("threshold map not an object", _document(strategies=[_threshold(thresholds=[1])]),
     "strategies[0].thresholds: expected an object, got list"),
    ("threshold map missing", _document(strategies=[_without(_threshold(), "thresholds")]),
     "strategies[0].thresholds: expected an object, got NoneType"),
    ("threshold key not an edge id", _document(strategies=[_threshold(thresholds={"e0": 1})]),
     "strategies[0].thresholds: key 'e0' is not an edge id"),
    ("threshold key with a leading zero",
     _document(strategies=[_threshold(thresholds={"0": 1, "00": 0})]),
     "strategies[0].thresholds: key '00' is not an edge id"),
    ("threshold key with a plus sign", _document(strategies=[_threshold(thresholds={"+0": 1})]),
     "strategies[0].thresholds: key '+0' is not an edge id"),
    ("threshold key with a space", _document(strategies=[_threshold(thresholds={" 0": 1})]),
     "strategies[0].thresholds: key ' 0' is not an edge id"),
    ("threshold key in non-ASCII digits",
     _document(strategies=[_threshold(thresholds={"\u0660": 1})]),
     "strategies[0].thresholds: key '\u0660' is not an edge id"),
    ("threshold value not an integer", _document(strategies=[_threshold(thresholds={"0": "1"})]),
     "strategies[0].thresholds.0: expected an integer, got str"),
    ("unknown kind", _document(strategies=[_ranking(kind="pro-rata")]),
     "strategies[0].kind: expected 'edge-ranking' or 'threshold', got 'pro-rata'"),
    ("bad kind before bad owner", _document(strategies=[_ranking(kind=1, owner=1)]),
     "strategies[0].kind: expected a string, got int"),
    ("bad owner before bad ranking", _document(strategies=[_ranking(owner=None, ranking=None)]),
     "strategies[0].owner: expected a string, got NoneType"),
    ("bad ranking entry before unknown field",
     _document(strategies=[_ranking(ranking=["0"], extra=1)]),
     "strategies[0].ranking[0]: expected an integer, got str"),
    ("bad ranking before unknown kind",
     _document(strategies=[_ranking(kind="pro-rata", ranking={})]),
     "strategies[0].ranking: expected an array, got dict"),
    ("unknown kind before unknown field",
     _document(strategies=[_ranking(kind="pro-rata", extra=1)]),
     "strategies[0].kind: expected 'edge-ranking' or 'threshold', got 'pro-rata'"),
    ("strategy unknown field in place of kind",
     _document(strategies=[_without(_ranking(extra=1), "kind")]),
     "strategies[0].kind: expected a string, got NoneType"),
    ("threshold unknown field in place of map",
     _document(strategies=[_without(_threshold(extra=1), "thresholds")]),
     "strategies[0]: unknown field 'extra'"),
    ("threshold unknown field before bad map",
     _document(strategies=[_threshold(thresholds=None, extra=1)]),
     "strategies[0]: unknown field 'extra'"),
    ("threshold bad key before bad value",
     _document(strategies=[_threshold(thresholds={"x": 1, "0": None})]),
     "strategies[0].thresholds: key 'x' is not an edge id"),
    ("threshold bad value before bad key",
     _document(strategies=[_threshold(thresholds={"0": None, "x": 1})]),
     "strategies[0].thresholds.0: expected an integer, got NoneType"),
    ("strategy parse fault before duplicate owner",
     _document(strategies=[_ranking(), _ranking(), 3]),
     "strategies[2]: expected an object, got int"),
    ("duplicate owner", _document(strategies=[_ranking(), _threshold()]),
     "strategies: duplicate owner"),
    ("duplicate owner before check",
     _document(strategies=[_ranking(ranking=[1]), _ranking(ranking=[2])]),
     "strategies: duplicate owner"),
    ("check: not a permutation", _document(strategies=[_ranking(ranking=[0, 0])]),
     "strategies[a]: ranking of 'a' is not a permutation of its outgoing edges"),
    ("check: thresholds do not cover",
     _document(strategies=[_threshold(thresholds={"0": 1, "1": 0})]),
     "strategies[a]: thresholds of 'a' must cover exactly its outgoing edges"),
    ("check: threshold above weight", _document(strategies=[_threshold(thresholds={"0": 4})]),
     "strategies[a]: threshold 4 on edge 0 outside [0, 3]"),
    ("check: unknown owner", _document(strategies=[_ranking(owner="z", ranking=[])]),
     "strategies[z]: unknown node 'z'"),
]


@pytest.mark.parametrize(
    "text, message", [case[1:] for case in PARSE_ERRORS], ids=[case[0] for case in PARSE_ERRORS]
)
def test_parse_error_names_the_first_fault(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_document(text)
    assert str(excinfo.value) == message


def test_total_weight_at_the_cap_loads():
    doc = parse_document(_document(edges=[_edge(weight=2**61), _edge(id=1, weight=2**61 - 1)]))
    assert sum(doc.network.weights) + doc.network.external("a") == 2**62


_JSON_TREES = st.recursive(
    st.text() | st.integers(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(_JSON_TREES)
@settings(max_examples=100, deadline=None)
def test_documents_are_indented_as_json_dumps_indents_them(tree):
    """``render_document`` indents its JSON itself, since the standard
    library's indented encoder leaves a reference cycle per call; on any
    tree of objects, arrays, strings (non-ASCII too) and ints it writes the
    bytes ``json.dumps(tree, indent=2)`` writes."""
    assert finclear_io._indented(tree) == json.dumps(tree, indent=2)


def _random_document(rng: random.Random) -> dict:
    """A valid document as a JSON tree: a random network with up to two
    added parallel edges, strategies of both kinds for some indebted firms,
    and nodes and edges in shuffled order."""
    net = random_net(rng, max_nodes=6, max_edges=10, max_weight=5)
    edges = [(e.id, e.src, e.dst, e.weight) for e in ReferenceNetwork.of(net).edges]
    for _ in range(rng.randint(0, 2)):
        _, u, v, w = rng.choice(edges)
        edges.append((edges[-1][0] + rng.randint(1, 3), u, v, rng.choice((w, rng.randint(0, 5)))))
    net = FinancialNetwork.build(net.nodes, net.external_assets, edges)
    profile = random_profile(rng, net)
    kept = [s for s in profile.strategies.values() if rng.random() < 0.8]
    doc = json.loads(render_document(net, StrategyProfile.of(kept)))
    rng.shuffle(doc["nodes"])
    rng.shuffle(doc["edges"])
    return doc


def _entries(doc: dict, key: str) -> list[dict]:
    part = doc.get(key)
    return [e for e in part if isinstance(e, dict)] if isinstance(part, list) else []


def _thresholds(doc: dict) -> list[dict]:
    return [
        s["thresholds"] for s in _entries(doc, "strategies")
        if isinstance(s.get("thresholds"), dict) and s["thresholds"]
    ]


def _set(rng, entries: list[dict], field: str, value) -> None:
    if entries:
        rng.choice(entries)[field] = value


def _wrong_type(doc, rng):
    part = rng.choice(("nodes", "edges", "strategies", "entry", "field"))
    if part in ("nodes", "edges", "strategies"):
        doc[part] = rng.choice(({}, 3, "x", None))
    elif part == "entry" and doc["nodes"]:
        key = rng.choice(("nodes", "edges", "strategies"))
        if isinstance(doc.get(key), list) and doc[key]:
            doc[key][rng.randrange(len(doc[key]))] = rng.choice(([], 1, "x", None))
    else:
        entries = [e for key in ("nodes", "edges", "strategies") for e in _entries(doc, key)]
        if entries:
            entry = rng.choice(entries)
            entry[rng.choice(sorted(entry))] = rng.choice(([0], {"a": 1}, 1.5, "7", None, 7))


def _bool_amount(doc, rng):
    where = rng.choice(("external", "weight", "threshold", "ranking"))
    if where == "external":
        _set(rng, _entries(doc, "nodes"), "external", rng.choice((True, False)))
    elif where == "weight":
        _set(rng, _entries(doc, "edges"), "weight", rng.choice((True, False)))
    elif where == "threshold" and _thresholds(doc):
        taus = rng.choice(_thresholds(doc))
        taus[rng.choice(sorted(taus))] = rng.choice((True, False))
    else:
        rankings = [
            s["ranking"] for s in _entries(doc, "strategies")
            if isinstance(s.get("ranking"), list) and s["ranking"]
        ]
        if rankings:
            ranking = rng.choice(rankings)
            ranking[rng.randrange(len(ranking))] = True


def _unknown_field(doc, rng):
    entries = [e for key in ("nodes", "edges", "strategies") for e in _entries(doc, key)]
    (rng.choice(entries) if entries and rng.random() < 0.8 else doc)["extra"] = 1


def _missing_field(doc, rng):
    entries = [e for key in ("nodes", "edges", "strategies") for e in _entries(doc, key) if e]
    if entries:
        entry = rng.choice(entries)
        del entry[rng.choice(sorted(entry))]


def _duplicate_id(key):
    def mutate(doc, rng):
        entries = _entries(doc, key)
        if len(entries) >= 2:
            a, b = rng.sample(entries, 2)
            a["id"] = b.get("id")
    return mutate


def _dangling(doc, rng):
    _set(rng, _entries(doc, "edges"), rng.choice(("src", "dst")), "ghost")


def _self_loop(doc, rng):
    edges = _entries(doc, "edges")
    if edges:
        edge = rng.choice(edges)
        edge["dst"] = edge.get("src")


def _unbounded(doc, rng):
    _set(rng, _entries(doc, "edges"), "weight", "unbounded")


def _over_the_cap(doc, rng):
    _set(rng, _entries(doc, "edges"), "weight", 2**62)


def _key_with_zero(doc, rng):
    if _thresholds(doc):
        taus = rng.choice(_thresholds(doc))
        key = rng.choice(sorted(taus))
        taus["0" + key] = taus.pop(key)


def _threshold_above_weight(doc, rng):
    weights = {e["id"]: e.get("weight") for e in _entries(doc, "edges") if type(e.get("id")) is int}
    if _thresholds(doc):
        taus = rng.choice(_thresholds(doc))
        key = rng.choice(sorted(taus))
        weight = weights.get(int(key) if key.isdigit() else None)
        if type(weight) is int:
            taus[key] = weight + 1


def _undeclared_owner(doc, rng):
    _set(rng, _entries(doc, "strategies"), "owner", "ghost")


def _duplicate_owner(doc, rng):
    strategies = _entries(doc, "strategies")
    if strategies:
        doc["strategies"].append(json.loads(json.dumps(rng.choice(strategies))))


def _not_a_permutation(doc, rng):
    rankings = [s["ranking"] for s in _entries(doc, "strategies") if isinstance(s.get("ranking"), list)]
    if rankings:
        ranking = rng.choice(rankings)
        how = rng.choice(("drop", "repeat", "unknown"))
        if how == "drop" and ranking:
            ranking.pop(rng.randrange(len(ranking)))
        elif how == "repeat" and ranking:
            ranking.append(rng.choice(ranking))
        else:
            ranking.append(99)


def _rankings(doc: dict, min_len: int = 1) -> list[dict]:
    return [
        s for s in _entries(doc, "strategies")
        if isinstance(s.get("ranking"), list) and len(s["ranking"]) >= min_len
    ]


def _foreign_edge(doc, rng):
    """An edge of another firm in place of one of the owner's."""
    strategies = _rankings(doc)
    if strategies:
        strat = rng.choice(strategies)
        foreign = [e["id"] for e in _entries(doc, "edges") if e.get("src") != strat.get("owner")]
        if foreign:
            strat["ranking"][rng.randrange(len(strat["ranking"]))] = rng.choice(foreign)


def _repeated_id(doc, rng):
    """One ranked id twice, in a ranking of the right length."""
    strategies = _rankings(doc, min_len=2)
    if strategies:
        ranking = rng.choice(strategies)["ranking"]
        i, j = rng.sample(range(len(ranking)), 2)
        ranking[i] = ranking[j]


def _threshold_strategies(doc: dict) -> list[dict]:
    return [
        s for s in _rankings(doc)
        if isinstance(s.get("thresholds"), dict) and s["thresholds"]
    ]


def _threshold_off_the_ranking(doc, rng):
    """A threshold keyed to an edge outside the ranking (another firm's
    edge, or an id no edge has)."""
    strategies = _threshold_strategies(doc)
    if strategies:
        strat = rng.choice(strategies)
        ids = {e.get("id") for e in _entries(doc, "edges")}
        outside = sorted(i for i in ids if type(i) is int and i >= 0 and i not in strat["ranking"])
        taus = strat["thresholds"]
        edge_id = rng.choice(outside) if outside and rng.random() < 0.8 else 97
        taus[str(edge_id)] = taus.pop(rng.choice(sorted(taus)))


def _missing_threshold(doc, rng):
    strategies = _threshold_strategies(doc)
    if strategies:
        taus = rng.choice(strategies)["thresholds"]
        del taus[rng.choice(sorted(taus))]


def _negative_threshold(doc, rng):
    strategies = _threshold_strategies(doc)
    if strategies:
        taus = rng.choice(strategies)["thresholds"]
        taus[rng.choice(sorted(taus))] = -rng.randint(1, 3)


FAULTS = {
    "wrong type": _wrong_type,
    "bool as amount": _bool_amount,
    "unknown field": _unknown_field,
    "missing field": _missing_field,
    "duplicate node": _duplicate_id("nodes"),
    "duplicate edge id": _duplicate_id("edges"),
    "dangling endpoint": _dangling,
    "self-loop": _self_loop,
    "unbounded": _unbounded,
    "over the cap": _over_the_cap,
    "threshold key 01": _key_with_zero,
    "threshold above weight": _threshold_above_weight,
    "undeclared owner": _undeclared_owner,
    "duplicate owner": _duplicate_owner,
    "not a permutation": _not_a_permutation,
    "edge of another firm": _foreign_edge,
    "repeated ranking id": _repeated_id,
    "threshold off the ranking": _threshold_off_the_ranking,
    "missing threshold": _missing_threshold,
    "negative threshold": _negative_threshold,
}


@dataclass(frozen=True)
class _Raised:
    kind: type
    message: str


def _outcome(fn, *args):
    """fn's result, or what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the two loaders must fail alike
        return _Raised(type(exc), str(exc))


@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(sorted(FAULTS)), max_size=2))
@settings(max_examples=300, deadline=None)
def test_loader_matches_the_reference_loader(seed, faults):
    """The compiled loader and the entry-by-entry reference loader agree on
    valid documents and on documents with one or two faults: the same
    ``ParseError`` (or other error) message, or equal networks (edge
    records read off the arrays, the slot of each id, out-adjacency,
    externals, repr), profiles, validation reports and compiled schedules."""
    rng = random.Random(seed)
    doc = _random_document(rng)
    for fault in faults:
        FAULTS[fault](doc, rng)
    text = json.dumps(doc)
    new, ref = _outcome(parse_document, text), _outcome(reference_parse_document, text)
    if isinstance(new, _Raised) or isinstance(ref, _Raised):
        assert new == ref
        assert issubclass(new.kind, FinclearError)  # never a crash that both loaders share
        return
    net, (ref_net, ref_profile) = new.network, ref
    assert ReferenceNetwork.of(net) == ref_net
    assert net == FinancialNetwork.build(ref_net.nodes, ref_net.external_assets, ref_net.edges)
    assert repr(net).removeprefix("FinancialNetwork") == repr(ref_net).removeprefix("ReferenceNetwork")
    names = {*ref_net.out, *ref_net.into, *ref_profile.strategies, "ghost"}
    for v in sorted(names):
        unknown = _Raised(UnknownNodeError, f"unknown node {v!r}")
        out = ref_net.out.get(v)
        assert _outcome(net.out_ids, v) == (unknown if out is None else sorted(e.id for e in out))
    assert net.debtors() == [v for v in ref_net.nodes if ref_net.out[v]]
    for e in ref_net.edges:
        assert ref_net.edges[net.slot[e.id]] == ref_net.by_id[e.id]
    assert new.profile == ref_profile
    violations = reference_violations(ref_net)
    assert validate_network(net).violations == violations
    if not violations:
        for strat in new.profile.strategies.values():
            assert payment_segments(strat, net) == reference_payment_segments(strat, ref_net)


class TestFixtures:
    def test_two_cycle_fixture(self, fixtures_dir):
        doc = load_document(fixtures_dir / "two_cycle.json")
        assert validate_network(doc.network).ok
        assert doc.network.external("u") == 1

    def test_gadget_fixture_carries_its_forced_strategies(self, fixtures_dir):
        doc = load_document(fixtures_dir / "no_nash.json")
        assert validate_network(doc.network).ok
        assert len(doc.profile.strategies) == 6


class TestDot:
    def test_externals_become_boxes(self):
        net = FinancialNetwork.build(["a", "b"], {"a": 2}, [(0, "a", "b", 3)])
        dot = render_dot(net)
        assert 'label="3"' in dot
        assert '"external:a" [shape=box, label="2"]' in dot
        assert "external:b" not in dot


# ---------------------------------------------------------------------------
# Command-line interface, end to end


def run_cli(*args: str, stdin: str = "", env: dict | None = None):
    return subprocess.run(
        [sys.executable, "-m", "finclear.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestCli:
    def test_generated_gadget_has_no_equilibria(self):
        gen = run_cli("gen", "no-nash")
        assert gen.returncode == 0
        result = run_cli("enumerate", "--space", "edge", stdin=gen.stdout)
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "0 equilibria"

    def test_enumeration_cost_does_not_grow_with_weights(self):
        """a owes b and c 10^12 each; c holds 1 and owes a 1. a holds 1 under
        either ranking and pays it on, so both rankings are equilibria with
        revenue 3. Enumeration must not tabulate every asset level."""
        w = 10**12
        doc = {
            "nodes": [
                {"id": "a", "external": 0},
                {"id": "b", "external": 0},
                {"id": "c", "external": 1},
            ],
            "edges": [
                {"id": 0, "src": "a", "dst": "b", "weight": w},
                {"id": 1, "src": "a", "dst": "c", "weight": w},
                {"id": 2, "src": "c", "dst": "a", "weight": 1},
            ],
            "strategies": [],
        }
        result = run_cli("enumerate", "--space", "edge", stdin=json.dumps(doc))
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "2 equilibria"
        assert sum("revenue = 3" in line for line in lines) == 2

    def test_ring_game_metrics(self):
        gen = run_cli("gen", "spoa", "--d", "5")
        result = run_cli("metrics", stdin=gen.stdout)
        assert result.returncode == 0
        assert "spoa = 4/1" in result.stdout

    def test_a_closed_stdout_ends_the_command_without_a_traceback(self, tmp_path):
        """``clear`` on a 20,000-firm ring writes about 300 kB, far more than
        a pipe holds; the reader takes one line and closes the pipe, so the
        next write fails with EPIPE."""
        names = [f"f{i}" for i in range(20_000)]
        doc = {
            "nodes": [{"id": v, "external": 1} for v in names],
            "edges": [
                {"id": i, "src": v, "dst": names[i - 1], "weight": 2} for i, v in enumerate(names)
            ],
            "strategies": [
                {"kind": "edge-ranking", "owner": v, "ranking": [i]} for i, v in enumerate(names)
            ],
        }
        path, err_path = tmp_path / "ring.json", tmp_path / "stderr.txt"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with err_path.open("wb") as err, subprocess.Popen(
            [sys.executable, "-m", "finclear.cli", "clear", str(path)],
            stdout=subprocess.PIPE,
            stderr=err,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
        assert first == b"a_f0 = 3\n"
        assert b"Traceback" not in err_path.read_bytes()
        assert err_path.read_bytes() == b""
        assert code == cli.EXIT_BROKEN_PIPE

    def test_pro_rata_clearing_prints_fractions(self, fixtures_dir):
        result = run_cli("clear", "--pro-rata", str(fixtures_dir / "two_cycle.json"))
        assert result.returncode == 0
        assert "a_u = 2/1" in result.stdout
        assert "a_v = 1/1" in result.stdout

    def test_pro_rata_rejects_oracle_and_profile(self, fixtures_dir, tmp_path, capsys):
        """Pro-rata clearing uses no strategy, so ``--oracle`` or ``--profile``
        beside ``--pro-rata`` is a usage error rather than ignored, raised
        before any file is read."""
        doc, missing = str(fixtures_dir / "two_cycle.json"), str(tmp_path / "missing.json")
        for flags, named in (
            (["--oracle", "kleene-bottom"], "--oracle"),
            (["--profile", missing], "--profile"),
            (["--oracle", "kleene-bottom", "--profile", missing], "--oracle or --profile"),
        ):
            assert cli.main(["clear", "--pro-rata", *flags, doc]) == cli.EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith(f"error: --pro-rata cannot be combined with {named}\n"), flags

    def test_kleene_oracle_stops_at_its_budget(self):
        """u and v owe each other W and hold nothing; v pays 1 to s first.
        From the top, each Jacobi lap lowers the cycle by one unit, so the
        oracle would take W laps to reach revenue 0."""
        w = 10**6
        doc = {
            "nodes": [{"id": v, "external": 0} for v in ("s", "u", "v")],
            "edges": [
                {"id": 0, "src": "u", "dst": "v", "weight": w},
                {"id": 1, "src": "v", "dst": "u", "weight": w},
                {"id": 2, "src": "v", "dst": "s", "weight": 1},
            ],
            "strategies": [
                {"owner": "u", "kind": "edge-ranking", "ranking": [0]},
                {"owner": "v", "kind": "edge-ranking", "ranking": [2, 1]},
            ],
        }
        text = json.dumps(doc)
        capped = run_cli("clear", "--oracle", "kleene-top", "--max-candidates", "50", stdin=text)
        assert capped.returncode == 3
        assert capped.stdout == ""
        assert capped.stderr == "kleene-top: stopped after 50 iterations: candidate cap of 50 reached\n"
        timed = run_cli("clear", "--oracle", "kleene-top", "--timeout-secs", "0.2", stdin=text)
        assert timed.returncode == 3
        assert "timeout of 0.2 s reached" in timed.stderr
        bottom = run_cli("clear", "--oracle", "kleene-bottom", "--max-candidates", "50", stdin=text)
        assert bottom.returncode == 0  # from the bottom, nothing moves
        assert bottom.stdout.splitlines()[-1] == "revenue = 0"

    def test_unknown_subcommand_exits_64_with_usage(self):
        result = run_cli("frobnicate")
        assert result.returncode == 64
        assert "usage:" in result.stderr

    def test_unknown_flag_exits_64(self):
        result = run_cli("clear", "--bogus")
        assert result.returncode == 64

    def test_invalid_document_exits_2(self):
        result = run_cli("validate", stdin='{"nodes": [{"id": "a", "external": -3}], "edges": []}')
        assert result.returncode == 2
        assert "negative-external" in result.stdout

    def test_budget_exhaustion_exits_3_with_partial_output(self):
        gen = run_cli("gen", "no-nash")
        result = run_cli(
            "enumerate", "--space", "edge", "--max-candidates", "3", stdin=gen.stdout
        )
        assert result.returncode == 3
        assert "0 equilibria" in result.stdout

    def test_output_is_byte_deterministic(self, cli_env):
        gen = run_cli("gen", "pos-unbounded", "--m", "6")
        first = run_cli("metrics", "--no-d", stdin=gen.stdout, env=cli_env)
        second = run_cli("metrics", "--no-d", stdin=gen.stdout, env=cli_env)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    def test_opt_se_ignores_document_order(self):
        """The optimum of gen pos-unbounded is not unique, so the thresholds
        opt-se prints depend on tie-breaking; that must follow node and edge
        ids, never the order in which the document lists them."""
        doc = run_cli("gen", "pos-unbounded", "--m", "10").stdout
        base = run_cli("opt-se", stdin=doc)
        assert base.returncode == 0
        rng = random.Random(5)
        for _ in range(3):
            payload = json.loads(doc)
            rng.shuffle(payload["nodes"])
            rng.shuffle(payload["edges"])
            shuffled = run_cli("opt-se", stdin=json.dumps(payload))
            assert shuffled.returncode == 0
            assert shuffled.stdout == base.stdout

    def test_clearing_ignores_the_seed(self, fixtures_dir, cli_env):
        doc = run_cli("gen", "poa-unbounded").stdout
        base = None
        for seed in ("1", "7", "424242"):
            env = dict(cli_env, FINCLEAR_SEED=seed)
            payload = json.loads(doc)
            payload["strategies"] = [
                {"owner": "f1", "kind": "edge-ranking", "ranking": [2, 0]},
                {"owner": "f2", "kind": "edge-ranking", "ranking": [3, 1]},
            ]
            result = run_cli("clear", stdin=json.dumps(payload), env=env)
            assert result.returncode == 0
            base = base or result.stdout
            assert result.stdout == base

    def test_export_dot_round_trip(self, fixtures_dir):
        result = run_cli("export-dot", str(fixtures_dir / "two_cycle.json"))
        assert result.returncode == 0
        assert result.stdout.startswith("digraph")

    def test_best_response_subcommand(self, fixtures_dir):
        gen = run_cli("gen", "sat", "--vars", "1", "--clause", "1")
        result = run_cli(
            "best-response", "--firm", "pool", "--space", "edge", stdin=gen.stdout
        )
        assert result.returncode == 0
        assert "value = 2" in result.stdout  # starter plus the satisfied clause

    def test_gen_rejects_missing_parameters(self):
        assert run_cli("gen", "spoa").returncode == 64
        assert run_cli("gen", "sat", "--vars", "2").returncode == 64
        assert run_cli("gen", "3dm", "--elements", "1,2,3").returncode == 64
        # Present but out of range: the generators' ValueErrors are usage errors.
        for argv in (
            "3dm --elements 1,2 --triple 1,2,3 --variant best-response",
            "3dm --elements 1,1,2 --triple 1,1,2 --variant decision",
            "3dm --elements 1,2,3 --triple 1,2,4 --variant decision",
            "sat --vars 2 --clause 1,5",
            "sat --vars 2 --clause 0,1",
            "spoa --d 1",
            "edge-spos --n 1 --m 3",
            "pos-unbounded --m -1",
        ):
            result = run_cli("gen", *argv.split())
            assert result.returncode == 64, argv
            assert "Traceback" not in result.stderr, argv


def _count_calls(monkeypatch, name: str, modules) -> list:
    """Wrap ``name`` in each module that looks it up; returns the call log."""
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _looking_up(name: str) -> list:
    """The command and clearing modules that look ``name`` up."""
    return [module for module in (cli, clearing) if hasattr(module, name)]


def test_clear_validates_once_and_checks_each_strategy_once(tmp_path, monkeypatch, capsys):
    """The loader checks and compiles each strategy in one pass; clearing
    trusts it, reads its schedules, checks and compiles none, and reuses the
    network's validation report. A ``--profile`` override is checked and
    compiled against the network once."""
    rng = random.Random(11)
    net = random_net(rng, max_nodes=8, max_edges=16)
    profile = random_profile(rng, net)
    path = tmp_path / "net.json"
    path.write_text(render_document(net, profile), encoding="utf-8")
    validations = _count_calls(monkeypatch, "validate_network", (cli, core))
    loaded = _count_calls(monkeypatch, "check_strategy", (finclear_io,))
    checks = _count_calls(monkeypatch, "check_strategy", (clearing,))
    compiles = _count_calls(monkeypatch, "compile_schedule", _looking_up("compile_schedule"))
    assert cli.main(["clear", str(path)]) == 0
    out = capsys.readouterr().out
    assert "revenue = " in out
    assert len(validations) == 1
    assert sorted(strat.owner for strat, _ in loaded) == sorted(profile.strategies)
    assert (checks, compiles) == ([], [])
    assert cli.main(["clear", "--profile", str(path), str(path)]) == 0
    assert capsys.readouterr().out == out
    assert len(loaded) == 3 * len(profile.strategies)  # the document, and it again as the override
    assert sorted(strat.owner for strat, _ in checks) == sorted(profile.strategies)
    assert sorted(v for _, v, strat in compiles if strat is not None) == sorted(profile.strategies)


def test_clear_and_export_dot_read_the_arrays(tmp_path, monkeypatch, capsys):
    """``clear`` and ``export-dot`` read the network's arrays: they build no
    ``LiabilityEdge`` and no threshold map, and call ``payment_segments``
    zero times. Each command checks and compiles each document strategy
    exactly once, in the loader; ``clear`` still validates once, and it
    checks and compiles nothing after loading. No other subcommand builds a
    ``LiabilityEdge`` from the parsed document either: not the searches,
    ``opt-se``, pro-rata clearing or the Kleene oracle."""
    rng = random.Random(0)
    net = random_net(rng, max_nodes=8, max_edges=16)
    profile = random_profile(rng, net)
    assert {type(s) for s in profile.strategies.values()} == {
        EdgeRankingStrategy, ThresholdRankingStrategy
    }
    path = tmp_path / "net.json"
    path.write_text(render_document(net, profile), encoding="utf-8")
    built = _count_calls(monkeypatch, "__init__", (LiabilityEdge,))
    maps = _count_calls(monkeypatch, "threshold_map", (ThresholdRankingStrategy,))
    segments = _count_calls(monkeypatch, "payment_segments", (finclear_strategies,))
    validations = _count_calls(monkeypatch, "validate_network", (cli, core))
    checks = _count_calls(monkeypatch, "check_strategy", (finclear_io, clearing))
    compiles = _count_calls(monkeypatch, "compile_schedule", _looking_up("compile_schedule"))
    assert cli.main(["clear", str(path)]) == 0
    assert "revenue = " in capsys.readouterr().out
    assert len(validations) == 1
    assert sorted(strat.owner for strat, _ in checks) == sorted(profile.strategies)
    for command, header in (("validate", "ok"), ("export-dot", "digraph liabilities {")):
        assert cli.main([command, str(path)]) == 0
        assert capsys.readouterr().out.startswith(header)
    assert sorted(strat.owner for strat, _ in checks) == sorted(3 * list(profile.strategies))
    assert compiles == []
    assert (built, maps, segments) == ([], [], [])
    firm = net.debtors()[0]
    searches = (["best-response", "--firm", firm], ["check", "--nash"], ["check", "--strong"],
                ["enumerate"], ["metrics"])
    others = (["opt-se"], ["clear", "--pro-rata"], ["clear", "--oracle", "kleene-top"])
    for argv in (*[[*a, "--max-candidates", "300"] for a in searches], *others):
        assert cli.main([*argv, str(path)]) in (cli.EXIT_OK, cli.EXIT_EXHAUSTED)
        assert capsys.readouterr().out
        assert built == [], argv
    assert LiabilityEdge(0, "a", "b", 1).weight == 1 and len(built) == 1  # the counter counts


def test_main_builds_one_parser_and_carries_no_state_between_calls(tmp_path, monkeypatch, capsys):
    """``main`` builds its parser on the first call and reuses it: a repeated
    ``append`` option, a budget flag, or a usage error leaves nothing behind
    for the next call."""
    budgets = []

    def recorded(args, _original=cli._budget):
        budgets.append(_original(args))
        return budgets[-1]

    monkeypatch.setattr(cli, "_budget", recorded)

    def run(*argv: str) -> tuple[int, str, str]:
        code = cli.main(list(argv))
        return (code, *capsys.readouterr())

    cli._build_parser.cache_clear()
    first_error = run("check", "--space", "edge")  # neither --nash nor --strong
    assert first_error[0] == 64 and first_error[1] == ""
    assert first_error[2].startswith("usage: finclear check")

    three_dm = ("gen", "3dm", "--elements", "1,2,3,4,5,6",
                "--triple", "1,2,3", "--triple", "4,5,6", "--variant", "decision")
    sat = ("gen", "sat", "--vars", "2", "--clause", "1,-2", "--clause", "2")
    normal = {}
    for argv in (three_dm, sat):
        normal[argv] = run(*argv)
        assert normal[argv][0] == 0 and normal[argv][1]
        assert run(*argv) == normal[argv]

    path = tmp_path / "no-nash.json"
    path.write_text(run("gen", "no-nash")[1], encoding="utf-8")
    capped = run("enumerate", "--max-candidates", "5", str(path))
    assert capped[0] == 3
    uncapped = run("enumerate", str(path))
    assert uncapped[0] == 0 and uncapped[1].startswith("0 equilibria")
    assert [b.max_candidates for b in budgets] == [5, 1_000_000]

    assert run("gen", "spoa")[0] == 64  # no --d
    assert run(*sat) == normal[sat]
    assert run("gen", "3dm", "--elements", "1,2,3")[0] == 64  # no --variant
    assert run(*three_dm) == normal[three_dm]
    assert run("check", "--space", "edge") == first_error
    assert cli._build_parser.cache_info().misses == 1


def _clear(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["clear", *argv])
    return code, out.getvalue(), err.getvalue()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_clear_prints_the_same_bytes_with_the_document_as_its_own_override(seed):
    """``clear DOC`` clears with the schedules the loader compiled, and
    ``clear --profile DOC DOC`` compiles the override's strategies against
    the network again: on random documents, some with a strategy missing,
    the two print the same bytes and exit alike."""
    rng = random.Random(seed)
    net = random_net(rng, max_nodes=8, max_edges=16)
    strategies = list(random_profile(rng, net).strategies.values())
    if rng.random() < 0.2:
        strategies.pop(rng.randrange(len(strategies)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_document(net, StrategyProfile.of(strategies)))
        loaded = _clear(path)
        assert _clear("--profile", path, path) == loaded
    assert loaded[0] == (0 if len(strategies) == len(net.debtors()) else 2)


C = {"id": "c", "external": 0}
AC = _edge(id=1, dst="c", weight=2)


@pytest.mark.parametrize(
    "edges, strategy, code, stdout, stderr",
    [
        ([_edge(), AC], _ranking(ranking=[0, 1]), 0,
         "a_a = 1\na_b = 1\na_c = 0\nrevenue = 2\n", ""),
        ([_edge()], _ranking(), 2, "",
         "ranking of 'a' is not a permutation of its outgoing edges\n"),
        ([_edge(weight=5), AC], _threshold(ranking=[0, 1], thresholds={"0": 5, "1": 0}), 2, "",
         "threshold 5 on edge 0 outside [0, 3]\n"),
        ([_edge(), AC], _ranking(owner="b", ranking=[]), 2, "", "no strategy for firm(s): a\n"),
    ],
    ids=["valid", "ranking misses an edge", "threshold above the weight", "no strategy"],
)
def test_clear_checks_a_profile_override_against_the_network(
    tmp_path, edges, strategy, code, stdout, stderr
):
    """The document's a ranks edge 1 (to c) first; the override document is
    the same network but for ``edges``, and its loader accepts ``strategy``."""
    net = tmp_path / "net.json"
    net.write_text(_document(nodes=[_node(), B, C], edges=[_edge(), AC],
                             strategies=[_ranking(ranking=[1, 0])]), encoding="utf-8")
    other = tmp_path / "other.json"
    other.write_text(_document(nodes=[_node(), B, C], edges=edges, strategies=[strategy]),
                     encoding="utf-8")
    result = run_cli("clear", "--profile", str(other), str(net))
    assert (result.returncode, result.stdout, result.stderr) == (code, stdout, stderr)


@pytest.mark.parametrize("strategy", [_threshold(), _ranking()], ids=["threshold", "edge-ranking"])
@pytest.mark.parametrize("command", ["validate", "clear", "export-dot"])
def test_a_strategy_on_an_unbounded_edge_loads_and_fails_validation(tmp_path, capsys, command, strategy):
    """An unbounded edge sets no upper bound on its threshold, so the
    document loads under either strategy kind, and validation rejects the
    unbounded weight with exit 2 and no traceback."""
    path = tmp_path / "net.json"
    path.write_text(_document(edges=[_edge(weight="unbounded")], strategies=[strategy]), encoding="utf-8")
    code = cli.main([command, str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in err
    line = "unbounded-weight: edge 0 has unbounded weight outside a circulation network\n"
    assert (out, err) == ((line, "") if command == "validate" else ("", line))


def _reference_digits(n: int) -> str:
    """Decimal digits of n >= 0, 18 at a time from the low end."""
    chunks = []
    while True:
        n, low = divmod(n, 10**18)
        if not n:
            return "".join([str(low), *(f"{c:018d}" for c in reversed(chunks))])
        chunks.append(low)


def test_fmt_prints_fractions_past_the_int_to_str_limit():
    limit = sys.get_int_max_str_digits()
    sevens = 7 * (10**5000 - 1) // 9
    assert _fmt(Fraction(sevens, 10**4999 + 3)).split("/") == ["7" * 5000, "1" + "0" * 4998 + "3"]
    big = random.Random(3).getrandbits(30_000)
    assert _fmt(Fraction(-big, 7)) == f"-{_reference_digits(big)}/7"
    assert _fmt(Fraction(12, 8)) == "3/2"
    assert sys.get_int_max_str_digits() == limit
