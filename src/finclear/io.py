"""Network document serialization: strict JSON schema, canonical bytes, DOT export.

A document carries the network (``nodes``, ``edges``) and optionally the
committed part of a strategy profile (``strategies``). Parsing is fail-loud:
unknown fields, wrong types, and out-of-range values are rejected with the
offending field's path. It fills the network's arrays straight from the JSON
entries, so loading builds no ``LiabilityEdge``, and checks and compiles each
strategy against them in one pass, keeping its schedule for ``clear``.
Rendering is canonical, so render(parse(x)) is byte-identical for
canonicalized files.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quoted
from typing import Any, Mapping

from .core import (
    UNBOUNDED,
    FinancialNetwork,
    FinclearError,
    TOTAL_WEIGHT_CAP,
    Weight,
    collector_paused,
    node_key,
    sorted_nodes,
)
from .strategies import (
    EdgeRankingStrategy,
    RankingStrategy,
    StrategyProfile,
    ThresholdRankingStrategy,
    check_strategy,
)

UNBOUNDED_TOKEN = "unbounded"


class ParseError(FinclearError):
    """Input document rejected; the message names the offending field."""


@dataclass(frozen=True)
class NetworkDocument:
    """A network, its strategies, and their segments as loading compiled them, by owner."""
    network: FinancialNetwork
    profile: StrategyProfile
    segments: Mapping[str, list[tuple[int, int]] | None]


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _require_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _require_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _require_int(value: Any, path: str) -> int:
    # bool is a subclass of int; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _reject_unknown(obj: Mapping[str, Any], allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ParseError(f"{path}: unknown field '{unknown[0]}'")


def _parse_weight(value: Any, path: str) -> Weight:
    if value == UNBOUNDED_TOKEN:
        return UNBOUNDED
    weight = _require_int(value, path)
    if weight < 0:
        raise ParseError(f"{path}: weight must be non-negative")
    return weight


def _edge_id(key: str) -> int | None:
    """The edge id ``key`` spells if it is an int's canonical form, else None."""
    try:
        edge_id = int(key)
    except ValueError:
        return None
    return edge_id if str(edge_id) == key else None


def _parse_strategy(entry: Any, idx: int) -> RankingStrategy:
    """The entry's strategy; one that fails the inline test goes through
    ``_checked_strategy``, which names its first bad field."""
    if (
        type(entry) is dict
        and type(owner := entry.get("owner")) is str
        and type(ranking := entry.get("ranking")) is list
        and all(type(e) is int for e in ranking)
    ):
        kind = entry.get("kind")
        if kind == "edge-ranking" and len(entry) == 3:
            return EdgeRankingStrategy(owner, tuple(ranking))
        if (
            kind == "threshold"
            and len(entry) == 4
            and type(raw := entry.get("thresholds")) is dict
            and all(type(tau) is int for tau in raw.values())
            and None not in (thresholds := {_edge_id(key): tau for key, tau in raw.items()})
        ):
            return ThresholdRankingStrategy.of(owner, ranking, thresholds)
    return _checked_strategy(entry, f"strategies[{idx}]")


def _checked_strategy(entry: Any, path: str) -> RankingStrategy:
    obj = _require_mapping(entry, path)
    kind = _require_str(obj.get("kind"), f"{path}.kind")
    owner = _require_str(obj.get("owner"), f"{path}.owner")
    ranking = tuple(
        _require_int(e, f"{path}.ranking[{i}]")
        for i, e in enumerate(_require_list(obj.get("ranking"), f"{path}.ranking"))
    )
    if kind == "edge-ranking":
        _reject_unknown(obj, {"owner", "kind", "ranking"}, path)
        return EdgeRankingStrategy(owner, ranking)
    if kind == "threshold":
        _reject_unknown(obj, {"owner", "kind", "ranking", "thresholds"}, path)
        raw = _require_mapping(obj.get("thresholds"), f"{path}.thresholds")
        thresholds = {}
        for key, value in raw.items():
            edge_id = _edge_id(key)
            if edge_id is None:
                raise ParseError(f"{path}.thresholds: key '{key}' is not an edge id")
            thresholds[edge_id] = _require_int(value, f"{path}.thresholds.{key}")
        return ThresholdRankingStrategy.of(owner, ranking, thresholds)
    raise ParseError(f"{path}.kind: expected 'edge-ranking' or 'threshold', got '{kind}'")


def _checked_node(entry: Any, path: str) -> tuple[str, int]:
    obj = _require_mapping(entry, path)
    _reject_unknown(obj, {"id", "external"}, path)
    return (
        _require_str(obj.get("id"), f"{path}.id"),
        _require_int(obj.get("external"), f"{path}.external"),
    )


def _checked_edge(entry: Any, path: str) -> tuple[int, str, str, Weight]:
    obj = _require_mapping(entry, path)
    _reject_unknown(obj, {"id", "src", "dst", "weight"}, path)
    return (
        _require_int(obj.get("id"), f"{path}.id"),
        _require_str(obj.get("src"), f"{path}.src"),
        _require_str(obj.get("dst"), f"{path}.dst"),
        _parse_weight(obj.get("weight"), f"{path}.weight"),
    )


def _columns(entries: list, fields: tuple[str, ...], types: tuple[type, ...]) -> list[list] | None:
    """Each field of every entry, as one list per field, if every entry is
    an object of exactly these fields and the values have exactly these
    JSON types (so a boolean is never an amount); else None."""
    if set(map(type, entries)) - {dict} or set(map(len, entries)) - {len(fields)}:
        return None
    try:
        columns = [list(map(operator.itemgetter(field), entries)) for field in fields]
    except KeyError:
        return None
    if any(set(map(type, column)) - {kind} for column, kind in zip(columns, types)):
        return None
    return columns


def parse_document(text: str) -> NetworkDocument:
    """Parse a network document straight into the network's arrays; each
    strategy is checked against the network and compiled in one pass
    (``check_strategy``), and the document keeps its schedule.

    A node or edge list is read a column at a time if every entry is an
    object of exactly its fields, of exact JSON types, with node ids distinct
    and weights non-negative; else each entry goes through ``_checked_node``
    or ``_checked_edge``, which accept exactly such entries (or an
    ``"unbounded"`` weight) and name the first bad field of the first bad
    entry. A strategy entry that fails its inline test of the same kind goes
    through ``_checked_strategy``. Each list is emptied once read. Like every
    command, the parse runs with the cyclic garbage collector paused
    (``collector_paused``): the JSON tree and all built from it are acyclic,
    so a collection could only walk them.
    """
    return collector_paused(_parse, text)


def _parse(text: str) -> NetworkDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    top = _require_mapping(raw, "document")
    _reject_unknown(top, {"nodes", "edges", "strategies"}, "document")

    entries = _require_list(top.get("nodes"), "nodes")
    columns = _columns(entries, ("id", "external"), (str, int))
    if columns is not None and len(set(columns[0])) == len(entries):
        externals = dict(zip(*columns))
    else:
        externals = {}
        for i, obj in enumerate(entries):
            node, external = _checked_node(obj, f"nodes[{i}]")
            if node in externals:
                raise ParseError(f"nodes[{i}].id: duplicate node '{node}'")
            externals[node] = external
    entries.clear()

    entries = _require_list(top.get("edges", []), "edges")
    columns = _columns(entries, ("id", "src", "dst", "weight"), (int, str, str, int))
    if columns is not None and min(columns[3], default=0) >= 0:
        finite = sum(columns[3])
    else:
        rows = [_checked_edge(obj, f"edges[{i}]") for i, obj in enumerate(entries)]
        columns = [[row[j] for row in rows] for j in range(4)]
        finite = sum(w for w in columns[3] if w is not UNBOUNDED)
    entries.clear()
    if finite + sum(max(x, 0) for x in externals.values()) > TOTAL_WEIGHT_CAP:
        raise ParseError(
            f"document: total weight plus external assets exceeds 2^62 ({TOTAL_WEIGHT_CAP})"
        )

    nodes = tuple(sorted_nodes(externals))
    net = FinancialNetwork(nodes, {v: externals[v] for v in nodes}, *columns)
    entries = _require_list(top.get("strategies", []), "strategies")
    strategies = [_parse_strategy(entry, i) for i, entry in enumerate(entries)]
    entries.clear()
    if len({s.owner for s in strategies}) != len(strategies):
        raise ParseError("strategies: duplicate owner")
    segments = {}
    for strat in strategies:
        try:
            segments[strat.owner] = check_strategy(strat, net)
        except FinclearError as exc:
            raise ParseError(f"strategies[{strat.owner}]: {exc}") from exc
    return NetworkDocument(net, StrategyProfile.of(strategies), segments)


def load_document(path: str) -> NetworkDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_document(fh.read())


def _strategy_entry(strat: RankingStrategy) -> dict[str, Any]:
    if isinstance(strat, EdgeRankingStrategy):
        return {
            "owner": strat.owner,
            "kind": "edge-ranking",
            "ranking": list(strat.ranking),
        }
    if isinstance(strat, ThresholdRankingStrategy):
        return {
            "owner": strat.owner,
            "kind": "threshold",
            "ranking": list(strat.ranking),
            "thresholds": {
                str(edge_id): tau for edge_id, tau in sorted(strat.threshold_map().items())
            },
        }
    raise FinclearError(f"strategy of {strat.owner} has no document form")


def render_document(
    net: FinancialNetwork, profile: StrategyProfile | None = None
) -> str:
    """Canonical document bytes: sorted nodes/edges/strategies, two-space indent."""
    doc = {
        "nodes": [
            {"id": v, "external": net.external(v)} for v in net.nodes
        ],
        "edges": [
            {
                "id": e,
                "src": net.names[u],
                "dst": net.names[v],
                "weight": UNBOUNDED_TOKEN if w is UNBOUNDED else w,
            }
            for e, u, v, w in zip(net.ids, net.src, net.dst, net.weights)
        ],
        "strategies": [
            _strategy_entry(profile.strategies[owner])
            for owner in sorted(profile.strategies, key=node_key)
        ]
        if profile is not None
        else [],
    }
    return _indented(doc) + "\n"


def _indented(value: Any, margin: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a tree of objects, arrays, strings
    and ints whose text starts at indentation ``margin``. The standard
    library's indented encoder is pure Python and makes a cycle of
    self-recursive closures on every call; this renderer makes none."""
    kind = type(value)
    if kind is str:
        return _quoted(value)
    if kind is int:
        return int.__repr__(value)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = margin + "  "
    if kind is dict:
        items = [f"{_quoted(key)}: {_indented(item, inner)}" for key, item in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{margin}}}"
    items = [_indented(item, inner) for item in value]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{margin}]"


def _dot_quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_dot(net: FinancialNetwork) -> str:
    """DOT graph: firms as ellipses, external assets as dashed-linked boxes,
    edge labels carrying the weights."""
    lines = ["digraph liabilities {", "  rankdir=LR;"]
    for v in net.nodes:
        lines.append(f"  {_dot_quote(v)} [shape=ellipse];")
        ext = net.external(v)
        if ext:
            box = _dot_quote(f"external:{v}")
            lines.append(f"  {box} [shape=box, label=\"{ext}\"];")
            lines.append(f"  {box} -> {_dot_quote(v)} [style=dashed];")
    quoted = [_dot_quote(v) for v in net.names]
    for u, v, w in zip(net.src, net.dst, net.weights):
        weight = UNBOUNDED_TOKEN if w is UNBOUNDED else w
        lines.append(f"  {quoted[u]} -> {quoted[v]} [label=\"{weight}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
