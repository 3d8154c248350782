"""Financial networks, the compiled circulation, flow accounting, and cycle decomposition.

A network is a directed multigraph of firms. Each edge carries a non-negative
integer liability weight; each firm holds non-negative integer external assets.
``FinancialNetwork`` is one representation: the node order, the externals and
the edges as id, source, target and weight arrays in id order, with a
compressed out-adjacency. The loader and ``FinancialNetwork.build`` fill it,
and every engine reads the arrays; a ``LiabilityEdge`` is only an input
record, for ``build`` and the generators. ``build_circulation_network``
closes a valid network into a circulation with a source and compiles it
once into the int arrays of ``CirculationNetwork``, which the clearing
kernel, the maximum-value circulation, the cycle bound,
``check_conservation`` and ``decompose_circulation`` all read.
All arithmetic in this package is exact (ints, or ``fractions.Fraction`` for
pro-rata clearing); nothing is ever represented in floating point.
"""

from __future__ import annotations

import gc
import itertools
import operator
import time
from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter
from typing import Callable, Iterable, Mapping, TypeVar, Union

NodeId = str
EdgeId = int
Money = int

# Loaders reject inputs whose total weight exceeds this; keeps every quantity
# comfortably inside 64-bit range for downstream consumers of saved files.
TOTAL_WEIGHT_CAP = 2**62

_T = TypeVar("_T")


def collector_paused(call: Callable[..., _T], *args) -> _T:
    """``call(*args)`` with the cyclic garbage collector paused, and the
    caller's setting restored on every exit, return or raise.

    finclear builds no reference cycles, so reference counting frees all
    that a call drops, and a generational collection meanwhile could only
    walk the call's live, acyclic data: the parsed network, its strategies,
    compiled schedules and kernel lists. A pause inside a pause changes
    nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return call(*args)
    finally:
        if enabled:
            gc.enable()


class FinclearError(Exception):
    """Base class for all errors raised by this package."""


class UnknownNodeError(FinclearError):
    pass


class InconsistentStateError(FinclearError):
    """A clearing state does not satisfy the fixed-point accounting identities."""


class ConservationError(FinclearError):
    """A flow assignment violates conservation at a node."""

    def __init__(self, node: NodeId, imbalance) -> None:
        super().__init__(f"flow conservation violated at {node!r}: imbalance {imbalance}")
        self.node = node
        self.imbalance = imbalance


class UnboundedType:
    """Singleton sentinel for an unlimited quantity, never a large number.

    It marks a parsed ``"unbounded"`` edge weight, which validation rejects,
    and an unbounded welfare ratio. ``__reduce__`` names the module global
    ``UNBOUNDED``, so ``copy``, ``deepcopy`` and ``pickle`` at every
    protocol return it rather than build a second instance.
    """

    _instance: "UnboundedType | None" = None

    def __new__(cls) -> "UnboundedType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self) -> str:
        return "UNBOUNDED"

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = UnboundedType()

Weight = Union[int, UnboundedType]


def node_key(node: NodeId) -> tuple[int, str]:
    """Canonical node ordering key: shorter ids first, then lexicographic.

    Keeps numbered ids in natural order ("v2" before "v10") while remaining a
    total order on arbitrary strings. All deterministic iteration in the
    package sorts nodes with this key.
    """
    return (len(node), node)


def sorted_nodes(nodes: Iterable[NodeId]) -> list[NodeId]:
    """Nodes in ``node_key`` order: sorted by text, then stably by length."""
    return sorted(sorted(nodes), key=len)


@dataclass(frozen=True, slots=True)
class LiabilityEdge:
    """A directed debt: ``src`` owes ``dst`` up to ``weight`` units."""

    id: EdgeId
    src: NodeId
    dst: NodeId
    weight: Weight


class FinancialNetwork:
    """Immutable directed multigraph of firms with liabilities and external assets.

    One representation, compiled once: the loader and ``build`` fill it and
    every engine reads its arrays. ``nodes`` are the declared firms in
    ``node_key`` order; ``names`` adds each undeclared edge endpoint, in order
    of first appearance, and ``index`` numbers ``names``. Edge slot k is the
    k-th edge by ascending id (stably): ``ids[k]``, ``src[k]`` and ``dst[k]``
    (``names`` indices) and ``weights[k]``; ``slot`` maps an id to its last
    slot. The arrays are tuples and assignment is rejected, as the caches
    assume that nothing changes: ``_start`` holds where each payer's
    out-edges start in payer order, from its out-degree count
    (``out_degree``, ``debtors``), and the out-adjacency (``out_ids``, which
    sorts) is built on first use. Construction never validates;
    ``validate_network`` reports violations and keeps its report in
    ``_report``.
    """

    __slots__ = ("nodes", "external_assets", "names", "index", "ids", "src", "dst", "weights",
                 "slot", "_start", "_out", "_report")

    def __init__(self, nodes: tuple[NodeId, ...], external_assets: dict[NodeId, Money],
                 ids: list[EdgeId], srcs: list[NodeId], dsts: list[NodeId], weights: list[Weight]) -> None:
        """``nodes`` unique and in ``node_key`` order; the edge columns in any order."""
        if any(map(operator.gt, ids, ids[1:])):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids, srcs, dsts, weights = ([col[k] for k in order] for col in (ids, srcs, dsts, weights))
        index, names = {v: i for i, v in enumerate(nodes)}, nodes
        try:
            src, dst = tuple(map(index.__getitem__, srcs)), tuple(map(index.__getitem__, dsts))
        except KeyError:  # an undeclared endpoint: number it after the declared nodes
            grown, src, dst = list(nodes), [], []
            for ends in zip(srcs, dsts):
                for name, col in zip(ends, (src, dst)):
                    col.append(index.setdefault(name, len(grown)))
                    if col[-1] == len(grown):
                        grown.append(name)
            names, src, dst = tuple(grown), tuple(src), tuple(dst)
        ids, start = tuple(ids), [0] * (len(names) + 1)
        for i in src:  # count each payer's out-edges
            start[i + 1] += 1
        values = (nodes, external_assets, names, index, ids, src, dst, tuple(weights),
                  dict(zip(ids, range(len(ids)))), list(itertools.accumulate(start)), None, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @staticmethod
    def build(
        nodes: Iterable[NodeId],
        external_assets: Mapping[NodeId, Money] | None = None,
        edges: Iterable[LiabilityEdge | tuple] = (),
    ) -> "FinancialNetwork":
        """Normalize and construct: sorts nodes/edges, fills missing externals with 0.

        Edge tuples ``(id, src, dst, weight)`` are accepted as a convenience.
        """
        node_tuple = tuple(sorted_nodes(set(nodes)))
        ext = dict(external_assets or {})
        externals = {v: ext.get(v, 0) for v in node_tuple}
        # Preserve any externals declared for undeclared nodes so validation can flag them.
        for v, amount in ext.items():
            if v not in externals:
                externals[v] = amount
        rows = [(e.id, e.src, e.dst, e.weight) if isinstance(e, LiabilityEdge) else e for e in edges]
        columns = [list(col) for col in zip(*rows)] if rows else [[], [], [], []]
        return FinancialNetwork(node_tuple, externals, *columns)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = attrgetter("nodes", "external_assets", "names", "ids", "weights", "src", "dst")
        return fields(self) == fields(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        name = self.names.__getitem__
        edges = tuple(map(LiabilityEdge, self.ids, map(name, self.src), map(name, self.dst), self.weights))
        return (f"FinancialNetwork(nodes={self.nodes!r}, "
                f"external_assets={self.external_assets!r}, edges={edges!r})")

    def out_degree(self, v: NodeId) -> int:
        """The number of v's out-edges. Raises ``UnknownNodeError`` if v is
        neither declared nor an edge's source."""
        start, i = self._start, self.index.get(v)
        if i is None or (i >= len(self.nodes) and start[i] == start[i + 1]):
            raise UnknownNodeError(f"unknown node {v!r}")
        return start[i + 1] - start[i]

    def out_ids(self, v: NodeId) -> list[EdgeId]:
        """The ids of v's out-edges, ascending, from every edge id grouped by
        payer (sorted on first use). Raises like ``out_degree``."""
        degree = self.out_degree(v)
        if self._out is None:
            order = sorted(range(len(self.ids)), key=self.src.__getitem__)
            object.__setattr__(self, "_out", [self.ids[k] for k in order])
        first = self._start[self.index[v]]
        return self._out[first : first + degree]

    def debtors(self) -> list[NodeId]:
        """The declared firms with at least one out-edge, in node order."""
        start = self._start
        return [v for v, a, b in zip(self.nodes, start, start[1:]) if a < b]

    def external(self, v: NodeId) -> Money:
        return self.external_assets.get(v, 0)

    def total_external(self) -> Money:
        return sum(self.external_assets.get(v, 0) for v in self.nodes)


def total_liabilities(net: FinancialNetwork, v: NodeId) -> Money:
    """Sum of v's outgoing edge weights. Unbounded edges never appear in base networks."""
    total = 0
    for e in net.out_ids(v):
        w = net.weights[net.slot[e]]
        if w is UNBOUNDED:
            raise InconsistentStateError(f"unbounded liability on base edge {e}")
        total += w
    return total


def asset_ceiling(net: FinancialNetwork) -> dict[NodeId, Money]:
    """Each firm's external assets plus its incoming finite capacity: a bound
    on its assets. One pass over the edges."""
    ceiling = [net.external(v) for v in net.names]
    for v, w in zip(net.dst, net.weights):
        if w is not UNBOUNDED:
            ceiling[v] += w
    return dict(zip(net.nodes, ceiling))


@dataclass(frozen=True)
class SearchBudget:
    """Caps on evaluated candidates and wall-clock time for a single search."""

    max_candidates: int = 1_000_000
    timeout_secs: float = 60.0


class _Exhausted(Exception):
    """Internal control flow: the budget ran out mid-search. The message names
    the cap that ran out."""


class _Meter:
    __slots__ = ("limit", "timeout", "deadline", "used")

    def __init__(self, budget: SearchBudget) -> None:
        self.limit = budget.max_candidates
        self.timeout = budget.timeout_secs
        self.deadline = time.monotonic() + budget.timeout_secs
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise _Exhausted(f"candidate cap of {self.limit} reached")
        self.check_deadline()

    def check_deadline(self) -> None:
        """Raise once the time is up, charging no candidate: for walks that
        revisit what was already charged."""
        if time.monotonic() > self.deadline:
            raise _Exhausted(f"timeout of {self.timeout} s reached")


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_network(net: FinancialNetwork) -> ValidationReport:
    """Report every violated invariant; an empty report means the network is valid.

    The network is immutable, so the report is computed once and kept on it."""
    if net._report is None:
        object.__setattr__(net, "_report", _violations(net))
    return net._report


def _violations(net: FinancialNetwork) -> ValidationReport:
    found: list[Violation] = []
    declared = set(net.nodes)
    for v in sorted_nodes(net.external_assets):
        amount = net.external_assets[v]
        if v not in declared:
            found.append(Violation("unknown-external-node", f"external assets for undeclared node {v!r}"))
        if isinstance(amount, int) and amount < 0:
            found.append(Violation("negative-external", f"node {v!r} has external assets {amount}"))
    n, names = len(net.nodes), net.names
    seen_ids: set[EdgeId] = set()
    for e, u, v, w in zip(net.ids, net.src, net.dst, net.weights):
        if e in seen_ids:
            found.append(Violation("duplicate-edge-id", f"edge id {e} appears more than once"))
        seen_ids.add(e)
        if u >= n:
            found.append(Violation("dangling-endpoint", f"edge {e} source {names[u]!r} is not declared"))
        if v >= n:
            found.append(Violation("dangling-endpoint", f"edge {e} target {names[v]!r} is not declared"))
        if u == v:
            found.append(Violation("self-loop", f"edge {e} loops on {names[u]!r}"))
        if w is UNBOUNDED:
            found.append(Violation("unbounded-weight", f"edge {e} has unbounded weight outside a circulation network"))
        elif w < 0:
            found.append(Violation("negative-weight", f"edge {e} has weight {w}"))
    return ValidationReport(tuple(found))


class CirculationNetwork:
    """A valid network closed into a circulation by a source, compiled once.

    The source pays each firm its external assets and takes each firm's
    surplus, so any clearing state extends to an exact circulation. Every
    engine reads these arrays. ``nodes``, the source among them, are in
    ``node_key`` order and ``index`` numbers them. Flow slot k < m is the
    base edge in ``base``'s slot k (``slot`` maps its id to k); node i has the
    surplus slot m + 2i, to the source, and the source slot m + 2i + 1,
    from it, which carries ``external[i]``. ``src`` and ``dst`` hold each
    slot's node indices and ``ids`` its public edge id: the base ids, then
    one (v, source) id per firm and one (source, v) id per firm with
    external assets, each block in node order, numbered on from the largest
    base id. The source's own slots and unfunded source slots have None.
    ``capacity`` exceeds all finite capacity, so no push fills that room.
    """

    __slots__ = (
        "base", "source", "nodes", "index", "slot", "src", "dst", "ids", "external", "capacity"
    )

    def __init__(self, net: FinancialNetwork) -> None:
        self.base = net
        self.source = source = fresh_source_id(net.nodes)
        s = bisect_left(net.nodes, node_key(source), key=node_key)
        self.nodes = (*net.nodes[:s], source, *net.nodes[s:])
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.slot = net.slot
        self.src = [i + (i >= s) for i in net.src]  # the source takes index s
        self.dst = [i + (i >= s) for i in net.dst]
        self.ids = list(net.ids)
        self.external = [net.external_assets.get(v, 0) for v in self.nodes]
        self.capacity = 1 + sum(self.external) + sum(net.weights)
        surplus_id = net.ids[-1] + 1 if net.ids else 0
        source_id = surplus_id + len(net.nodes)
        for i, x in enumerate(self.external):
            self.src += (i, s)
            self.dst += (s, i)
            if i == s:
                self.ids += (None, None)
                continue
            self.ids += (surplus_id, source_id if x > 0 else None)
            surplus_id += 1
            source_id += x > 0

    def circulation(self, real: Iterable[Money], surplus: Iterable[Money]) -> dict[EdgeId, Money]:
        """Base-edge flows ``real``, in slot order, closed into a circulation
        keyed by ascending edge id: node i's surplus edge carries
        ``surplus[i]`` and its source edge ``external[i]``."""
        ids, m = self.ids, len(self.slot)
        flow = dict(zip(ids, real))
        for block, amounts in ((ids[m::2], surplus), (ids[m + 1 :: 2], self.external)):
            flow.update((e, x) for e, x in zip(block, amounts) if e is not None)
        return flow


def fresh_source_id(taken: Iterable[NodeId]) -> NodeId:
    """A source node id not colliding with any existing node id."""
    existing = set(taken)
    candidate = "s"
    while candidate in existing:
        candidate += "'"
    return candidate


def build_circulation_network(net: FinancialNetwork) -> CirculationNetwork:
    """The compiled circulation of a valid network; raises
    ``InconsistentStateError`` on an invalid one."""
    report = net._report if net._report is not None else validate_network(net)
    if not report.ok:
        raise InconsistentStateError(f"invalid network: {report.violations[0]}")
    return CirculationNetwork(net)


@dataclass(frozen=True)
class FlowAssignment:
    """Per-edge money flow; edges absent from the map carry zero."""

    flow: Mapping[EdgeId, Money]

    def get(self, edge_id: EdgeId) -> Money:
        return self.flow.get(edge_id, 0)

    def total(self) -> Money:
        return sum(self.flow.values())


@dataclass(frozen=True)
class ClearingState:
    """A fixed point of the payment dynamics: assets, internal assets, and flows.

    ``assets[v] = external(v) + sum of incoming flows``; ``internal_assets``
    is the incoming-flow part alone. Values are ints for ranking strategies
    and Fractions for pro-rata clearing.
    """

    assets: Mapping[NodeId, Money]
    internal_assets: Mapping[NodeId, Money]
    flows: FlowAssignment


def check_clearing_consistency(net: FinancialNetwork, cs: ClearingState) -> None:
    """Raise unless the state satisfies the asset identities and edge capacities."""
    flow = cs.flows.flow
    inflows = [0] * len(net.names)
    for e, v, w in zip(net.ids, net.dst, net.weights):
        f = flow.get(e, 0)
        if f < 0 or (w is not UNBOUNDED and f > w):
            raise InconsistentStateError(f"flow {f} outside [0, {w}] on edge {e}")
        inflows[v] += f
    for v, inflow in zip(net.nodes, inflows):
        if cs.internal_assets.get(v, 0) != inflow:
            raise InconsistentStateError(
                f"internal assets of {v!r} are {cs.internal_assets.get(v, 0)}, inflow is {inflow}"
            )
        expected = net.external(v) + inflow
        if cs.assets.get(v, 0) != expected:
            raise InconsistentStateError(
                f"assets of {v!r} are {cs.assets.get(v, 0)}, expected {expected}"
            )


def revenue(net: FinancialNetwork, cs: ClearingState) -> Money:
    """Total assets across all firms; equals externals plus total edge flow."""
    check_clearing_consistency(net, cs)
    return sum(cs.assets.get(v, 0) for v in net.nodes)


def check_conservation(circ: CirculationNetwork, flows: FlowAssignment) -> None:
    """Raise ConservationError at the first node (in canonical order) out of balance."""
    balance = [0] * len(circ.nodes)
    for u, v, e in zip(circ.src, circ.dst, circ.ids):
        if e is not None:
            f = flows.get(e)
            balance[u] += f
            balance[v] -= f
    for v, b in zip(circ.nodes, balance):
        if b:
            raise ConservationError(v, b)


@dataclass(frozen=True)
class CycleDecomposition:
    """A flow written as weighted directed cycles (sequences of edge ids)."""

    cycles: tuple[tuple[EdgeId, ...], ...]
    multiplicity: tuple[Money, ...]

    def max_cycle_length(self) -> int:
        return max((len(c) for c in self.cycles), default=0)


def decompose_circulation(circ: CirculationNetwork, flows: FlowAssignment) -> CycleDecomposition:
    """Peel a conservative flow into directed cycles, canonically.

    Each round starts at the smallest node (by ``node_key``) with remaining
    outflow, follows the smallest-id positive-flow edge until a node repeats,
    and subtracts the cycle's bottleneck. Terminates because every round
    zeroes at least one edge.
    """
    check_conservation(circ, flows)
    if any(f < 0 for f in flows.flow.values()):
        bad = min(e for e, f in flows.flow.items() if f < 0)
        raise InconsistentStateError(f"negative flow on edge {bad}")
    remaining = {e: f for e, f in flows.flow.items() if f > 0}
    out_positive: list[list[tuple[EdgeId, int]]] = [[] for _ in circ.nodes]
    for k, e in enumerate(circ.ids):
        if e in remaining:
            out_positive[circ.src[k]].append((e, k))
    for arcs in out_positive:
        arcs.sort()
    cycles: list[tuple[EdgeId, ...]] = []
    mults: list[Money] = []
    while True:
        start = next((i for i, arcs in enumerate(out_positive) if arcs), None)
        if start is None:
            break
        path: list[tuple[EdgeId, int]] = []
        seen_at = {start: 0}
        u = start
        while True:
            arc = out_positive[u][0]
            path.append(arc)
            u = circ.dst[arc[1]]
            if u in seen_at:
                cycle = path[seen_at[u] :]
                break
            seen_at[u] = len(path)
        bottleneck = min(remaining[e] for e, _ in cycle)
        for arc in cycle:
            remaining[arc[0]] -= bottleneck
            if remaining[arc[0]] == 0:
                del remaining[arc[0]]
                out_positive[circ.src[arc[1]]].remove(arc)
        cycles.append(tuple(e for e, _ in cycle))
        mults.append(bottleneck)
    return CycleDecomposition(tuple(cycles), tuple(mults))
