"""Test-only code: the explicit circulation graph and strategy reconstruction.

``reference_circulation`` builds the circulation network edge by edge, as
``LiabilityEdge``s in one ``ReferenceNetwork``: the base nodes and edges,
then the source, one unbounded (v, source) edge per firm and one (source, v)
edge of weight a^x_v per firm with positive external assets, ids numbered on
from the largest base id, (v, source) block first, both blocks in node order.
It fixes the public edge ids that ``finclear.core.CirculationNetwork`` must
reproduce; ``reference_decompose`` and ``reference_conservation`` walk it
edge by edge, and the compiled versions must agree with them.

``reference_max_value_circulation`` is the maximum-value circulation with
no per-phase arc lists, the oracle for the package version.

``reference_strategy_space`` enumerates every ranking, interchangeable
out-edges included, and keeps the first strategy of each behavior.

``active_segment`` and ``threshold_from_flows`` rebuild an insolvent firm's
strategy from the flows of a clearing state.

``reference_parse_document`` is the loader as it was before documents were
parsed straight into ``FinancialNetwork``'s arrays: it builds one
``LiabilityEdge`` per edge into a ``ReferenceNetwork``, whose adjacency is
a dict of tuples, and checks each strategy against that with
``reference_check_strategy``. ``reference_violations`` and
``reference_payment_segments`` are validation and the payment schedule over
the same objects. They are the oracles of the compiled loader.
``ReferenceNetwork.of`` reads the same records, with per-node edge tuples,
off a ``FinancialNetwork``'s arrays: the package keeps only the arrays, and
tests that walk edges one record at a time build them here.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from finclear import (
    UNBOUNDED,
    FinancialNetwork,
    FinclearError,
    LiabilityEdge,
    ThresholdRankingStrategy,
)
from finclear.core import (
    TOTAL_WEIGHT_CAP,
    CirculationNetwork,
    ClearingState,
    ConservationError,
    CycleDecomposition,
    EdgeId,
    FlowAssignment,
    InconsistentStateError,
    Money,
    NodeId,
    UnboundedType,
    UnknownNodeError,
    Violation,
    fresh_source_id,
    sorted_nodes,
    total_liabilities,
)
from finclear.io import (
    ParseError,
    _checked_edge,
    _checked_node,
    _parse_strategy,
    _reject_unknown,
    _require_list,
    _require_mapping,
)
from finclear.strategies import (
    EdgeRankingStrategy,
    RankingStrategy,
    StrategyError,
    StrategyProfile,
    behavior_signature,
    check_strategy,
    payment_segments,
)


@dataclass(frozen=True)
class ReferenceNetwork:
    """A network as one ``LiabilityEdge`` per edge, sorted by id, and dicts
    of per-node edge tuples (undeclared endpoints included)."""

    nodes: tuple[NodeId, ...]
    external_assets: dict[NodeId, Money]
    edges: tuple[LiabilityEdge, ...]
    out: dict = field(init=False, repr=False, compare=False)
    into: dict = field(init=False, repr=False, compare=False)
    by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        out: dict[NodeId, list[LiabilityEdge]] = {v: [] for v in self.nodes}
        into: dict[NodeId, list[LiabilityEdge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            out.setdefault(e.src, []).append(e)
            into.setdefault(e.dst, []).append(e)
        object.__setattr__(self, "out", {v: tuple(es) for v, es in out.items()})
        object.__setattr__(self, "into", {v: tuple(es) for v, es in into.items()})
        object.__setattr__(self, "by_id", {e.id: e for e in self.edges})

    @staticmethod
    def of(net: FinancialNetwork) -> ReferenceNetwork:
        """One record per slot of ``net``'s arrays."""
        name = net.names.__getitem__
        edges = map(LiabilityEdge, net.ids, map(name, net.src), map(name, net.dst), net.weights)
        return ReferenceNetwork(net.nodes, net.external_assets, tuple(edges))

    def out_edges(self, v: NodeId) -> tuple[LiabilityEdge, ...]:
        try:
            return self.out[v]
        except KeyError:
            raise UnknownNodeError(f"unknown node {v!r}") from None

    def in_edges(self, v: NodeId) -> tuple[LiabilityEdge, ...]:
        return self.into[v]

    def edge(self, edge_id: EdgeId) -> LiabilityEdge:
        """The last record with this id."""
        return self.by_id[edge_id]


@dataclass(frozen=True)
class ReferenceCirculation(ReferenceNetwork):
    """The circulation network as an explicit graph: ``nodes`` are the base
    ones and the source, and ``edges`` the base ones followed by the
    source's. ``base`` is the base network's ``ReferenceNetwork``."""

    base: ReferenceNetwork
    source: NodeId
    source_in: tuple[LiabilityEdge, ...]  # (v, s), unbounded, one per firm
    source_out: tuple[LiabilityEdge, ...]  # (s, v), weight a^x_v, firms with a^x_v > 0

    def surplus_edge(self, v: NodeId) -> LiabilityEdge:
        """The unbounded (v, source) edge carrying v's surplus."""
        for e in self.out_edges(v):
            if e.dst == self.source:
                return e
        raise UnknownNodeError(f"{v!r} has no surplus edge")


def reference_circulation(net: FinancialNetwork) -> ReferenceCirculation:
    base = ReferenceNetwork.of(net)
    source = fresh_source_id(net.nodes)
    next_id = max(net.ids, default=-1) + 1
    source_in = []
    for v in net.nodes:
        source_in.append(LiabilityEdge(next_id, v, source, UNBOUNDED))
        next_id += 1
    source_out = []
    for v in net.nodes:
        if net.external(v) > 0:
            source_out.append(LiabilityEdge(next_id, source, v, net.external(v)))
            next_id += 1
    return ReferenceCirculation(
        tuple(sorted_nodes((*net.nodes, source))), {}, base.edges + (*source_in, *source_out),
        base, source, tuple(source_in), tuple(source_out),
    )


def reference_conservation(circ: ReferenceCirculation, flows: FlowAssignment) -> None:
    """Raise ConservationError at the first node (in canonical order) out of balance."""
    for v in sorted_nodes(circ.nodes):
        inflow = sum(flows.get(e.id) for e in circ.in_edges(v))
        outflow = sum(flows.get(e.id) for e in circ.out_edges(v))
        if inflow != outflow:
            raise ConservationError(v, outflow - inflow)


def reference_decompose(circ: ReferenceCirculation, flows: FlowAssignment) -> CycleDecomposition:
    """Peel a conservative flow into directed cycles: each round starts at
    the smallest node with remaining outflow, follows the smallest-id
    positive-flow edge until a node repeats, and subtracts the bottleneck."""
    reference_conservation(circ, flows)
    remaining = {e: f for e, f in flows.flow.items() if f > 0}
    if any(f < 0 for f in flows.flow.values()):
        bad = min(e for e, f in flows.flow.items() if f < 0)
        raise InconsistentStateError(f"negative flow on edge {bad}")
    out_positive: dict[NodeId, list[LiabilityEdge]] = {}
    for v in circ.nodes:
        out_positive[v] = sorted(
            (e for e in circ.out_edges(v) if remaining.get(e.id, 0) > 0), key=lambda e: e.id
        )
    order = sorted_nodes(circ.nodes)
    cycles: list[tuple[EdgeId, ...]] = []
    mults: list[Money] = []
    while True:
        start = next((v for v in order if out_positive[v]), None)
        if start is None:
            break
        path_edges: list[LiabilityEdge] = []
        seen_at: dict[NodeId, int] = {start: 0}
        u = start
        while True:
            e = out_positive[u][0]
            path_edges.append(e)
            u = e.dst
            if u in seen_at:
                cycle = path_edges[seen_at[u] :]
                break
            seen_at[u] = len(path_edges)
        bottleneck = min(remaining[e.id] for e in cycle)
        for e in cycle:
            remaining[e.id] -= bottleneck
            if remaining[e.id] == 0:
                del remaining[e.id]
                out_positive[e.src].remove(e)
        cycles.append(tuple(e.id for e in cycle))
        mults.append(bottleneck)
    return CycleDecomposition(tuple(cycles), tuple(mults))


def reference_max_value_circulation(circ: CirculationNetwork) -> FlowAssignment:
    """A maximum-value circulation by the primal-dual successive shortest
    paths of ``finclear.equilibria.max_value_circulation``, in the plainest
    form: the Dinic search walks every residual arc and tests its reduced
    cost each time it looks at it. The package version must return the same
    circulation, edge for edge."""
    net, src, dst = circ.base, circ.src, circ.dst
    n = len(circ.nodes)
    S, T = n, n + 1
    # Residual arcs in pairs: arc a and its reverse a ^ 1.
    head: list[int] = []
    cap: list[Money] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n + 2)]

    def add_arc(u: int, v: int, capacity: Money, unit_cost: int) -> None:
        adj[u].append(len(head))
        head.extend((v, u))
        cap.extend((capacity, 0))
        cost.extend((unit_cost, -unit_cost))
        adj[v].append(len(head) - 1)

    overdraft = [-x for x in circ.external]
    for k, w in enumerate(net.weights):  # arc 2k reduces edge k; its residual is the flow
        add_arc(src[k], dst[k], w, 1)
        overdraft[src[k]] += w
        overdraft[dst[k]] -= w
    for i, b in enumerate(overdraft):
        if b > 0:
            add_arc(S, i, b, 0)
        elif b < 0:
            add_arc(i, T, -b, 0)
    to_shed = sum(b for b in overdraft if b > 0)

    pot = [0] * (n + 2)

    def admissible(a: int, u: int) -> bool:
        return cap[a] > 0 and cost[a] + pot[u] == pot[head[a]]

    while to_shed > 0:
        dist: list[int | None] = [None] * (n + 2)
        settled = [False] * (n + 2)
        dist[S] = 0
        heap = [(0, S)]
        while heap:
            d, u = heapq.heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            if u == T:
                break
            for a in adj[u]:
                if cap[a] > 0:
                    v = head[a]
                    nd = d + cost[a] + pot[u] - pot[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        if not settled[T]:
            raise InconsistentStateError(
                f"no residual path drains the remaining overdraft {to_shed}"
            )
        reach = dist[T]
        for v in range(n + 2):
            pot[v] += dist[v] if settled[v] else reach

        while True:  # Dinic on the zero-reduced-cost arcs
            level: list[int | None] = [None] * (n + 2)
            level[S] = 0
            queue = deque([S])
            while queue:
                u = queue.popleft()
                for a in adj[u]:
                    v = head[a]
                    if level[v] is None and admissible(a, u):
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[T] is None:
                break
            nxt = [0] * (n + 2)
            path: list[int] = []
            u = S
            while True:
                if u == T:
                    push = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= push
                        cap[a ^ 1] += push
                    to_shed -= push
                    del path[next(k for k, a in enumerate(path) if cap[a] == 0):]
                    u = head[path[-1]] if path else S
                    continue
                arcs = adj[u]
                while nxt[u] < len(arcs):
                    a = arcs[nxt[u]]
                    if level[head[a]] == level[u] + 1 and admissible(a, u):
                        break
                    nxt[u] += 1
                else:
                    if u == S:
                        break
                    a = path.pop()
                    u = head[a ^ 1]
                    nxt[u] += 1
                    continue
                path.append(a)
                u = head[a]

    real = cap[: 2 * len(net.ids) : 2]
    surplus = circ.external.copy()
    for u, v, f in zip(src, dst, real):
        surplus[u] -= f
        surplus[v] += f
    for v, x in zip(circ.nodes, surplus):
        if x < 0:
            raise InconsistentStateError(f"firm {v!r} pays more than it holds")
    return FlowAssignment(circ.circulation(real, surplus))


@dataclass(frozen=True)
class SegmentCursor:
    """Where the owner's next unit of payment goes, and how far that segment
    runs. ``active_edge`` is None once the owner has paid all liabilities."""

    owner: NodeId
    paid_so_far: Money
    active_edge: EdgeId | None
    segment_remaining: Money | UnboundedType


def active_segment(
    strat: RankingStrategy, net: FinancialNetwork, paid_so_far: Money
) -> SegmentCursor:
    """The edge receiving the owner's next unit, and the units left in its segment."""
    if paid_so_far < 0:
        raise StrategyError("paid_so_far must be non-negative")
    cursor = paid_so_far
    for e_id, length in payment_segments(strat, net):
        if cursor < length:
            return SegmentCursor(strat.owner, paid_so_far, e_id, length - cursor)
        cursor -= length
    return SegmentCursor(strat.owner, paid_so_far, None, UNBOUNDED)


def threshold_from_flows(
    v: NodeId,
    net: FinancialNetwork,
    cs: ClearingState,
    unpaid_top: EdgeId,
) -> ThresholdRankingStrategy:
    """The threshold strategy reproducing v's payments in a given clearing state.

    Thresholds are v's current per-edge flows; the ranking puts the designated
    unpaid edge first (that is where any additional unit would go) and the
    rest in ascending edge-id order. Only meaningful for firms insolvent in
    the state; a solvent firm's strategy never affects the clearing state.
    """
    out = ReferenceNetwork.of(net).out_edges(v)
    if not out:
        raise StrategyError(f"{v!r} has no outgoing edges")
    if cs.assets.get(v, 0) >= total_liabilities(net, v):
        raise StrategyError(f"{v!r} is solvent; any strategy reproduces the state")
    by_id = {e.id: e for e in out}
    if unpaid_top not in by_id:
        raise StrategyError(f"edge {unpaid_top} does not leave {v!r}")
    top = by_id[unpaid_top]
    if top.weight is UNBOUNDED or cs.flows.get(unpaid_top) >= top.weight:
        raise StrategyError(f"edge {unpaid_top} carries full flow; pick an unpaid edge")
    ranking = (unpaid_top,) + tuple(sorted(e for e in by_id if e != unpaid_top))
    taus = {e.id: cs.flows.get(e.id) for e in out}
    return ThresholdRankingStrategy.of(v, ranking, taus)


def reference_check_strategy(strat: RankingStrategy, net: ReferenceNetwork) -> None:
    out_ids = sorted(e.id for e in net.out_edges(strat.owner))
    if sorted(strat.ranking) != out_ids:
        raise StrategyError(
            f"ranking of {strat.owner!r} is not a permutation of its outgoing edges"
        )
    if not isinstance(strat, EdgeRankingStrategy):
        taus = strat.threshold_map()
        if sorted(taus) != out_ids:
            raise StrategyError(
                f"thresholds of {strat.owner!r} must cover exactly its outgoing edges"
            )
        for e_id, tau in taus.items():
            cap = net.by_id[e_id].weight
            if tau < 0 or (cap is not UNBOUNDED and tau > cap):
                raise StrategyError(f"threshold {tau} on edge {e_id} outside [0, {cap}]")


def reference_payment_segments(
    strat: RankingStrategy, net: ReferenceNetwork
) -> list[tuple[EdgeId, Money]]:
    """Pass-1 thresholds, then pass-2 remainders, zero lengths dropped."""
    if isinstance(strat, EdgeRankingStrategy):
        taus = dict.fromkeys(strat.ranking, 0)
    else:
        taus = strat.threshold_map()
    segments = [(e_id, taus[e_id]) for e_id in strat.ranking if taus[e_id] > 0]
    for e_id in strat.ranking:
        rest = net.by_id[e_id].weight - taus[e_id]
        if rest > 0:
            segments.append((e_id, rest))
    return segments


def reference_violations(net: ReferenceNetwork) -> tuple[Violation, ...]:
    found: list[Violation] = []
    declared = set(net.nodes)
    for v in sorted_nodes(net.external_assets):
        amount = net.external_assets[v]
        if v not in declared:
            found.append(Violation("unknown-external-node", f"external assets for undeclared node {v!r}"))
        if isinstance(amount, int) and amount < 0:
            found.append(Violation("negative-external", f"node {v!r} has external assets {amount}"))
    seen_ids: set[EdgeId] = set()
    for e in net.edges:
        if e.id in seen_ids:
            found.append(Violation("duplicate-edge-id", f"edge id {e.id} appears more than once"))
        seen_ids.add(e.id)
        if e.src not in declared:
            found.append(Violation("dangling-endpoint", f"edge {e.id} source {e.src!r} is not declared"))
        if e.dst not in declared:
            found.append(Violation("dangling-endpoint", f"edge {e.id} target {e.dst!r} is not declared"))
        if e.src == e.dst:
            found.append(Violation("self-loop", f"edge {e.id} loops on {e.src!r}"))
        if e.weight is UNBOUNDED:
            found.append(Violation("unbounded-weight", f"edge {e.id} has unbounded weight outside a circulation network"))
        elif e.weight < 0:
            found.append(Violation("negative-weight", f"edge {e.id} has weight {e.weight}"))
    return tuple(found)


def reference_parse_document(text: str) -> tuple[ReferenceNetwork, StrategyProfile]:
    """Entry by entry, each node and edge through its inline test or its
    ``_checked_*`` sequence; then the 2^62 cap, the network, the strategies,
    the duplicate-owner check and ``reference_check_strategy`` on each."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    top = _require_mapping(raw, "document")
    _reject_unknown(top, {"nodes", "edges", "strategies"}, "document")
    externals = {}
    for i, obj in enumerate(_require_list(top.get("nodes"), "nodes")):
        if not (
            type(obj) is dict
            and len(obj) == 2
            and type(node := obj.get("id")) is str
            and type(external := obj.get("external")) is int
        ):
            node, external = _checked_node(obj, f"nodes[{i}]")
        if node in externals:
            raise ParseError(f"nodes[{i}].id: duplicate node '{node}'")
        externals[node] = external
    edges = []
    finite = 0
    for i, obj in enumerate(_require_list(top.get("edges", []), "edges")):
        if not (
            type(obj) is dict
            and len(obj) == 4
            and type(edge_id := obj.get("id")) is int
            and type(src := obj.get("src")) is str
            and type(dst := obj.get("dst")) is str
            and type(weight := obj.get("weight")) is int
            and weight >= 0
        ):
            edge_id, src, dst, weight = _checked_edge(obj, f"edges[{i}]")
        if weight is not UNBOUNDED:
            finite += weight
        edges.append(LiabilityEdge(edge_id, src, dst, weight))
    if finite + sum(max(x, 0) for x in externals.values()) > TOTAL_WEIGHT_CAP:
        raise ParseError(
            f"document: total weight plus external assets exceeds 2^62 ({TOTAL_WEIGHT_CAP})"
        )
    nodes = tuple(sorted_nodes(externals))
    edges.sort(key=attrgetter("id"))
    net = ReferenceNetwork(nodes, {v: externals[v] for v in nodes}, tuple(edges))
    strategies = [
        _parse_strategy(entry, i)
        for i, entry in enumerate(_require_list(top.get("strategies", []), "strategies"))
    ]
    owners = [s.owner for s in strategies]
    if len(set(owners)) != len(owners):
        raise ParseError("strategies: duplicate owner")
    for strat in strategies:
        try:
            reference_check_strategy(strat, net)
        except FinclearError as exc:
            raise ParseError(f"strategies[{strat.owner}]: {exc}") from exc
    return net, StrategyProfile.of(strategies)


def reference_strategy_space(net: FinancialNetwork, v: NodeId, threshold: bool) -> tuple:
    """Every permutation of v's out-edge ids in lexicographic order (with, in
    the threshold space, every threshold vector, ascending), the first
    candidate of each behavior kept."""
    ref = ReferenceNetwork.of(net)
    out_ids = sorted(e.id for e in ref.out_edges(v))
    ranges = [range(ref.edge(e).weight + 1 if threshold else 1) for e in out_ids]
    kept: dict[tuple, RankingStrategy] = {}
    for p in itertools.permutations(out_ids):
        for taus in itertools.product(*ranges):
            strat = (
                ThresholdRankingStrategy.of(v, p, dict(zip(out_ids, taus)))
                if threshold
                else EdgeRankingStrategy(v, p)
            )
            kept.setdefault(behavior_signature(check_strategy(strat, net), net), strat)
    return tuple(kept.values())
