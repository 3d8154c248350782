"""Clearing-state computation.

Three engines. ``top_cycle_increase`` is the workhorse: strongly polynomial,
exact, for edge/threshold-ranking profiles; it works on the circulation
network and repeatedly pushes flow around cycles of per-firm "active" edges.
``kleene_clearing`` is the lattice-theoretic oracle: Jacobi iteration of the
asset operator from the top (greatest fixed point) or bottom (least), slow but
independent, used to cross-check. ``clear_pro_rata`` is the exact-rational
reference clearing for the proportional baseline; some instances only converge
in the limit and are reported as approximate rather than silently truncated.
Both iterative engines run through one Jacobi driver, ``_iterate``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import (
    CirculationNetwork,
    ClearingState,
    FinancialNetwork,
    EdgeId,
    FinclearError,
    FlowAssignment,
    InconsistentStateError,
    Money,
    NodeId,
    build_circulation_network,
    node_key,
    total_liabilities,
)
from .strategies import (
    EdgeRankingStrategy,
    ProRataStrategy,
    Strategy,
    StrategyProfile,
    ThresholdRankingStrategy,
    check_strategy,
    payment_segments,
    payment_vector,
)


class ProfileError(FinclearError):
    pass


class IterationLimitError(FinclearError):
    pass


class KleeneStart(Enum):
    TOP = "top"
    BOTTOM = "bottom"


def _check_ranking_profile(net: FinancialNetwork, profile: StrategyProfile) -> None:
    for v in net.nodes:
        if not net.out_edges(v):
            continue
        strat = profile.strategy_for(v)
        if strat is None:
            raise ProfileError(f"no strategy for firm {v!r} with outgoing edges")
        if not isinstance(strat, (EdgeRankingStrategy, ThresholdRankingStrategy)):
            raise ProfileError(
                f"firm {v!r} has a {type(strat).__name__}; ranking strategy required"
            )
        check_strategy(strat, net)


def top_cycle_increase(
    net: FinancialNetwork,
    profile: StrategyProfile,
    *,
    cycle_rng: random.Random | None = None,
) -> ClearingState:
    """The coordinate-wise maximal clearing state of a ranking profile.

    ``cycle_rng`` randomizes which cycle gets pushed first; the result is
    invariant under that choice (the maximal clearing state is unique), and
    the knob exists so tests can demonstrate exactly that.
    """
    circ = build_circulation_network(net)
    return clear_circulation(circ, profile, cycle_rng=cycle_rng)


def clear_circulation(
    circ: CirculationNetwork,
    profile: StrategyProfile,
    *,
    cycle_rng: random.Random | None = None,
) -> ClearingState:
    """Run the cycle-pushing algorithm on a prebuilt circulation network.

    Every firm always has an active edge (its surplus edge to the source is
    last, with unbounded room), so flow walks die only at the exhausted
    source. Each push saturates at least one finite segment, bounding the
    number of pushes by |V| + 2|E| + 2.

    The walks cost O(V + E + the summed lengths of the pushed cycles), on
    two invariants. A node is dead once its walk reaches the exhausted
    source; dead nodes never revive, because a dead node's walk runs through
    dead nodes only and a push moves only the active edges of its cycle's
    nodes, which are not dead. And after a push the walk stays valid up to
    the first cycle node whose segment saturated: it resumes there, and the
    scan over start nodes resumes where it stopped.
    """
    _check_ranking_profile(circ.base, profile)
    return _clear(circ, profile, cycle_rng)


class _Kernel:
    """A circulation network as int arrays, nodes in ``node_key`` order.
    Flow slot k < m is the k-th base edge; node i has the surplus slot
    m + 2i and the source slot m + 2i + 1, which carries ``external[i]``.
    ``capacity`` exceeds all finite capacity, so no push fills that room.
    Nothing refers back to the circulation, so caching makes no cycle."""

    __slots__ = ("index", "slot", "dst", "source", "external", "capacity")

    def __init__(self, circ: CirculationNetwork) -> None:
        self.index = {v: i for i, v in enumerate(sorted(circ.nodes, key=node_key))}
        self.slot = {e.id: k for k, e in enumerate(circ.base.edges)}
        self.source = self.index[circ.source]
        self.dst = [self.index[e.dst] for e in circ.base.edges]
        for i in range(len(self.index)):
            self.dst += (self.source, i)
        self.external = [0] * len(self.index)
        for e in circ.source_out:
            self.external[self.index[e.dst]] = e.weight
        self.capacity = 1 + sum(self.external) + sum(e.weight for e in circ.base.edges)


def _clear(
    circ: CirculationNetwork,
    profile: StrategyProfile,
    cycle_rng: random.Random | None = None,
    surgery: tuple[NodeId, tuple[EdgeId, ...]] | None = None,
) -> ClearingState:
    """``clear_circulation`` without the profile check. Surgery (v, paid):
    v pays exactly the edges ``paid``, in order, then surplus, out of
    externals raised by len(paid), whatever ``profile`` says. Assets count
    the network's externals; v's inflow is its ``internal_assets`` entry."""
    kernel = circ._kernel
    if kernel is None:
        kernel = _Kernel(circ)
        object.__setattr__(circ, "_kernel", kernel)
    net, slot, dst, external = circ.base, kernel.slot, kernel.dst, kernel.external
    extra = len(surgery[1]) if surgery is not None else 0
    m, room = len(slot), kernel.capacity + extra
    schedules: list[list[tuple[int, Money]]] = [[] for _ in external]
    for v in net.nodes:
        i = kernel.index[v]
        if surgery is not None and v == surgery[0]:
            strat = EdgeRankingStrategy(v, surgery[1])
            external = external.copy()
            external[i] += extra
        else:
            strat = profile.strategy_for(v) if net.out_edges(v) else None
        if strat is not None:
            schedules[i] = [(slot[e], length) for e, length in payment_segments(strat, net)]
        schedules[i].append((m + 2 * i, room))
    schedules[kernel.source] = [(m + 2 * i + 1, x) for i, x in enumerate(external) if x > 0]

    n = len(schedules)
    flows = [0] * len(dst)
    seg_at = [0] * n
    active = [segs[0][0] if segs else -1 for segs in schedules]
    rem = [segs[0][1] if segs else 0 for segs in schedules]
    to = [dst[a] if a >= 0 else -1 for a in active]
    starts = list(range(n))
    if cycle_rng is not None:
        cycle_rng.shuffle(starts)
    at = [-1] * n  # u's index in ``path`` while u is on the walk; -1 off it, -2 dead
    path: list[int] = []
    for u in starts:
        while True:
            p = at[u]
            if p == -1:
                t = to[u]
                if t < 0:  # the exhausted source
                    break
                at[u] = len(path)
                path.append(u)
                u = t
            elif p == -2:
                break
            else:  # path[p:] is a cycle: push its bottleneck round it
                delta = min(map(rem.__getitem__, path[p:]))
                if delta <= 0:
                    raise InconsistentStateError(f"cycle push of size {delta}")
                cut = -1
                for j in range(p, len(path)):
                    w = path[j]
                    flows[active[w]] += delta
                    rem[w] -= delta
                    if rem[w]:
                        continue
                    if cut < 0:
                        cut = j
                    seg_at[w] += 1
                    if seg_at[w] < len(schedules[w]):
                        active[w], rem[w] = schedules[w][seg_at[w]]
                        to[w] = dst[active[w]]
                    else:
                        to[w] = -1
                u = path[cut]
                for w in path[cut:]:
                    at[w] = -1
                del path[cut:]
        at[u] = -2
        for w in path:
            at[w] = -2
        path.clear()
    return _clearing_state(net, {e.id: flows[k] for k, e in enumerate(net.edges)})


def _clearing_state(
    net: FinancialNetwork, flows: dict[EdgeId, Money], zero: Money | Fraction = 0
) -> ClearingState:
    """The state whose flows are ``flows``: inflows, then assets. ``flows``
    covers every edge; ``zero`` sets the number type of the sums."""
    internal = {v: zero for v in net.nodes}
    for e in net.edges:
        internal[e.dst] += flows[e.id]
    assets = {v: net.external(v) + internal[v] for v in net.nodes}
    return ClearingState(assets, internal, FlowAssignment(flows))


def _iterate(
    net: FinancialNetwork,
    strategies: list[Strategy],
    assets: dict[NodeId, Money | Fraction],
    max_iterations: int,
    zero: Money | Fraction = 0,
) -> tuple[ClearingState, int, bool]:
    """Jacobi iteration of a -> external + inflow(payments at a); edges of
    firms without a strategy carry ``zero``. Returns the last state, the
    iterations counted and whether that state is a fixed point; past the cap
    it is one more iterate."""
    idle = {e.id: zero for e in net.edges}
    iterations = 0
    while True:
        flows = dict(idle)
        for strat in strategies:
            flows.update(payment_vector(strat, net, assets[strat.owner]))
        state = _clearing_state(net, flows, zero)
        if iterations == max_iterations:
            return state, iterations, False
        iterations += 1
        if state.assets == assets:
            return state, iterations, True
        assets = state.assets


def _top(net: FinancialNetwork) -> dict[NodeId, Money]:
    """Externals plus incoming capacity: an upper bound on every firm's assets."""
    return {
        v: net.external(v) + sum(e.weight for e in net.in_edges(v) if not e.is_unbounded())
        for v in net.nodes
    }


def kleene_clearing(
    net: FinancialNetwork,
    profile: StrategyProfile,
    start: KleeneStart = KleeneStart.TOP,
) -> ClearingState:
    """Fixed-point iteration of the asset operator; intended as a testing oracle.

    From the top (assets bounded by externals plus incoming capacity) the
    iterates decrease to the greatest fixed point; from the bottom they
    increase to the least. The operator is evaluated Jacobi-style, always
    from the full previous vector. Exceeding the iteration cap means some
    strategy is not monotone, which ranking strategies never are.
    """
    _check_ranking_profile(net, profile)
    top = _top(net)
    assets = top if start is KleeneStart.TOP else {v: 0 for v in net.nodes}
    cap = sum(top.values()) + len(net.nodes) + 5
    payers = [profile.strategy_for(v) for v in net.nodes if net.out_edges(v)]
    state, _, converged = _iterate(net, payers, assets, cap + 1)
    if not converged:
        raise IterationLimitError(
            f"no fixed point after {cap} iterations; a strategy is not monotone"
        )
    return state


@dataclass(frozen=True)
class ProRataResult:
    """Pro-rata clearing outcome; ``converged`` False means ``state`` is only
    the current upper bound on the greatest fixed point."""

    state: ClearingState
    converged: bool
    iterations: int


def clear_pro_rata(net: FinancialNetwork, max_iterations: int | None = None) -> ProRataResult:
    """Greatest fixed point of the proportional payment map, in exact rationals.

    Iterates from the top. Proportional dynamics can contract geometrically
    forever (an unsaturated cycle splitting flow off to a side branch), so a
    cap bounds the work: on hitting it the current iterate is returned with
    ``converged=False``. Firms whose liabilities are all zero-weight simply
    keep their assets.
    """
    total_weight = sum(e.weight for e in net.edges)
    if max_iterations is None:
        max_iterations = max(1, 10 * len(net.nodes) * total_weight.bit_length())
    strategies = [
        ProRataStrategy(v)
        for v in net.nodes
        if net.out_edges(v) and total_liabilities(net, v) > 0
    ]
    top = {v: Fraction(a) for v, a in _top(net).items()}
    state, iterations, converged = _iterate(
        net, strategies, top, max_iterations, Fraction(0)
    )
    return ProRataResult(state, converged, iterations)
