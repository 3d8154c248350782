"""Test-only code: the explicit circulation graph and strategy reconstruction.

``reference_circulation`` builds the circulation network edge by edge, as
``LiabilityEdge``s in one ``FinancialNetwork``: the base nodes and edges,
then the source, one unbounded (v, source) edge per firm and one (source, v)
edge of weight a^x_v per firm with positive external assets, ids numbered on
from the largest base id, (v, source) block first, both blocks in node order.
It fixes the public edge ids that ``finclear.core.CirculationNetwork`` must
reproduce; ``reference_decompose`` and ``reference_conservation`` walk it
edge by edge, and the compiled versions must agree with them.

``reference_max_value_circulation`` is the maximum-value circulation with
no per-phase arc lists, the oracle for the package version.

``active_segment`` and ``threshold_from_flows`` rebuild an insolvent firm's
strategy from the flows of a clearing state.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from finclear import UNBOUNDED, FinancialNetwork, LiabilityEdge, ThresholdRankingStrategy
from finclear.core import (
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
    fresh_source_id,
    sorted_nodes,
    total_liabilities,
)
from finclear.strategies import RankingStrategy, StrategyError, payment_segments


@dataclass(frozen=True)
class ReferenceCirculation(FinancialNetwork):
    """The circulation network as an explicit graph: ``nodes`` and ``edges``
    are the base ones followed by the source and its edges."""

    base: FinancialNetwork
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
    source = fresh_source_id(net.nodes)
    next_id = max((e.id for e in net.edges), default=-1) + 1
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
        net.nodes + (source,),
        {},
        net.edges + tuple(source_in) + tuple(source_out),
        net,
        source,
        tuple(source_in),
        tuple(source_out),
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
    for k, e in enumerate(net.edges):  # arc 2k reduces edge k; its residual is the flow
        add_arc(src[k], dst[k], e.weight, 1)
        overdraft[src[k]] += e.weight
        overdraft[dst[k]] -= e.weight
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

    real = cap[: 2 * len(net.edges) : 2]
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
    out = net.out_edges(v)
    if not out:
        raise StrategyError(f"{v!r} has no outgoing edges")
    if cs.assets.get(v, 0) >= total_liabilities(net, v):
        raise StrategyError(f"{v!r} is solvent; any strategy reproduces the state")
    by_id = {e.id: e for e in out}
    if unpaid_top not in by_id:
        raise StrategyError(f"edge {unpaid_top} does not leave {v!r}")
    top = by_id[unpaid_top]
    if top.is_unbounded() or cs.flows.get(unpaid_top) >= top.weight:
        raise StrategyError(f"edge {unpaid_top} carries full flow; pick an unpaid edge")
    ranking = (unpaid_top,) + tuple(sorted(e for e in by_id if e != unpaid_top))
    taus = {e.id: cs.flows.get(e.id) for e in out}
    return ThresholdRankingStrategy.of(v, ranking, taus)
