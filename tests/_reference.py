"""Test-only code: the explicit circulation graph and strategy reconstruction.

``reference_circulation`` builds the circulation network edge by edge, as
``LiabilityEdge``s in one ``FinancialNetwork``: the base nodes and edges,
then the source, one unbounded (v, source) edge per firm and one (source, v)
edge of weight a^x_v per firm with positive external assets, ids numbered on
from the largest base id, (v, source) block first, both blocks in node order.
It fixes the public edge ids that ``finclear.core.CirculationNetwork`` must
reproduce; ``reference_decompose`` and ``reference_conservation`` walk it
edge by edge, and the compiled versions must agree with them.

``active_segment`` and ``threshold_from_flows`` rebuild an insolvent firm's
strategy from the flows of a clearing state.
"""

from __future__ import annotations

from dataclasses import dataclass

from finclear import UNBOUNDED, FinancialNetwork, LiabilityEdge, ThresholdRankingStrategy
from finclear.core import (
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
