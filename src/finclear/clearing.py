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
    """
    net = circ.base
    _check_ranking_profile(net, profile)

    order = sorted(circ.nodes, key=node_key)
    node_index = {v: i for i, v in enumerate(order)}
    n = len(order)

    edge_dst: list[int] = []
    edge_pos: dict[int, int] = {}
    for e in circ.edges:
        edge_pos[e.id] = len(edge_dst)
        edge_dst.append(node_index[e.dst])
    flows = [0] * len(edge_dst)

    # Payment schedule per node: (local edge, remaining) segments in order,
    # None marking unbounded room on the surplus edge. The source pays its
    # (s, v) edges in ascending node order and then goes inactive.
    schedules: list[list[tuple[int, Money | None]]] = [[] for _ in range(n)]
    for v in net.nodes:
        i = node_index[v]
        segs: list[tuple[int, Money | None]] = []
        if net.out_edges(v):
            for e_id, length in payment_segments(profile.strategy_for(v), net):
                segs.append((edge_pos[e_id], length))
        segs.append((edge_pos[circ.surplus_edge(v).id], None))
        schedules[i] = segs
    src_i = node_index[circ.source]
    schedules[src_i] = [
        (edge_pos[e.id], e.weight)
        for e in sorted(circ.source_out, key=lambda e: node_key(e.dst))
    ]

    seg_at = [0] * n
    seg_rem: list[Money | None] = [None] * n
    active_edge = [-1] * n
    active_to = [-1] * n
    for i in range(n):
        if schedules[i]:
            loc, length = schedules[i][0]
            seg_rem[i] = length
            active_edge[i] = loc
            active_to[i] = edge_dst[loc]

    walk_mark = [-1] * n
    path_pos = [0] * n
    walk_counter = 0

    while True:
        dead = [False] * n
        starts = range(n)
        if cycle_rng is not None:
            starts = list(starts)
            cycle_rng.shuffle(starts)
        cycle: list[int] | None = None
        for start in starts:
            if dead[start] or active_to[start] < 0:
                continue
            walk_counter += 1
            path: list[int] = []
            u = start
            while True:
                if active_to[u] < 0 or dead[u]:
                    dead[u] = True
                    for w in path:
                        dead[w] = True
                    break
                if walk_mark[u] == walk_counter:
                    cycle = path[path_pos[u] :]
                    break
                walk_mark[u] = walk_counter
                path_pos[u] = len(path)
                path.append(u)
                u = active_to[u]
            if cycle is not None:
                break
        if cycle is None:
            break

        delta: Money | None = None
        for u in cycle:
            r = seg_rem[u]
            if r is not None and (delta is None or r < delta):
                delta = r
        if delta is None or delta <= 0:
            raise InconsistentStateError(f"cycle push of size {delta}")
        for u in cycle:
            flows[active_edge[u]] += delta
            r = seg_rem[u]
            if r is None:
                continue
            r -= delta
            if r > 0:
                seg_rem[u] = r
                continue
            seg_at[u] += 1
            if seg_at[u] < len(schedules[u]):
                loc, length = schedules[u][seg_at[u]]
                seg_rem[u] = length
                active_edge[u] = loc
                active_to[u] = edge_dst[loc]
            else:
                seg_rem[u] = None
                active_edge[u] = -1
                active_to[u] = -1

    return _clearing_state(net, {e.id: flows[edge_pos[e.id]] for e in net.edges})


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
