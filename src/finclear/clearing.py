"""Clearing-state computation.

Four engines. ``clear_circulation`` is the kernel: it takes each node's
compiled int schedule (``compile_schedule``, or ``schedules_from`` the
segments a document was loaded with) and an external vector, not a profile,
and repeatedly pushes flow around cycles of "active" edges.
``top_cycle_increase`` wraps it for edge/threshold-ranking profiles:
strongly polynomial and exact. The searches' payoff table
(``equilibria._Game``) runs the same kernel block by block, over the
strongly connected blocks that ``_blocks`` finds, and reuses a block's
payments whenever its input repeats.
``kleene_clearing`` is the lattice-theoretic oracle: Jacobi iteration of the
asset operator from the top (greatest fixed point) or bottom (least), slow but
independent, used to cross-check, under an optional budget.
``clear_pro_rata`` is the exact clearing of the proportional baseline:
the fictitious default algorithm, at most n rounds of exact integer
elimination, where iterating the proportional map would only converge in the
limit; an optional budget caps its eliminations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping

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
    SearchBudget,
    _Exhausted,
    _Meter,
    asset_ceiling,
    build_circulation_network,
    total_liabilities,
)
from .strategies import (
    EdgeRankingStrategy,
    RankingStrategy,
    StrategyProfile,
    ThresholdRankingStrategy,
    check_strategy,
    payment_vector,
)


class ProfileError(FinclearError):
    pass


class BudgetExhaustedError(FinclearError):
    """A budgeted oracle stopped before its fixed point; the message says why."""


class KleeneStart(Enum):
    TOP = "top"
    BOTTOM = "bottom"


def _check_ranking(net: FinancialNetwork, v: NodeId, strat) -> list[tuple[int, Money]] | None:
    """``check_strategy``'s segments of ``strat``; ``ProfileError`` unless it
    is a ranking strategy owned by v (and ``StrategyError`` if malformed)."""
    if strat is None:
        raise ProfileError(f"no strategy for firm {v!r} with outgoing edges")
    if not isinstance(strat, (EdgeRankingStrategy, ThresholdRankingStrategy)):
        raise ProfileError(f"firm {v!r} has a {type(strat).__name__}; ranking strategy required")
    if strat.owner != v:
        raise ProfileError(f"firm {v!r} has a strategy owned by {strat.owner!r}")
    return check_strategy(strat, net)


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
    schedules = [compile_schedule(circ, v, profile.strategy_for(v)) for v in circ.nodes]
    return cleared_state(circ, schedules, cycle_rng=cycle_rng)


def compile_schedule(
    circ: CirculationNetwork, v: NodeId, strat: RankingStrategy | None
) -> list[tuple[int, Money]]:
    """v's payment schedule in ``circ``'s slots: ``_check_ranking``'s segments
    (none for a firm without out-edges), then (its surplus slot,
    ``circ.capacity``); the source's is empty."""
    if v == circ.source:
        return []
    segments = _check_ranking(circ.base, v, strat) if circ.base.out_degree(v) else []
    return [*segments, (len(circ.slot) + 2 * circ.index[v], circ.capacity)]


def schedules_from(circ: CirculationNetwork, segments: Mapping[NodeId, list]) -> list[list]:
    """Every node's ``compile_schedule`` from the segments the loader checked
    and compiled (owner -> segments), which cover every firm with out-edges."""
    m, room = len(circ.slot), circ.capacity
    return [[] if v == circ.source else [*segments.get(v, ()), (m + 2 * i, room)]
            for i, v in enumerate(circ.nodes)]


def cleared_state(
    circ: CirculationNetwork, schedules: list, *, cycle_rng: random.Random | None = None
) -> ClearingState:
    """The ``ClearingState`` of compiled ``schedules`` at ``circ``'s externals."""
    flows = clear_circulation(circ, schedules, circ.external, cycle_rng=cycle_rng)
    return _clearing_state(circ.base, flows[: len(circ.slot)])


def clear_circulation(
    circ: CirculationNetwork,
    schedules: list[list[tuple[int, Money]]],
    external: list[Money],
    *,
    cycle_rng: random.Random | None = None,
) -> list[Money]:
    """Run the cycle-pushing algorithm; return the flow on every slot of ``circ``.

    ``schedules[i]`` is node i's ``compile_schedule``, from strategies checked
    against ``circ.base`` (the kernel checks nothing); the source's entry is
    ignored, and the source pays node i ``external[i]``.

    Every firm's schedule ends in its surplus edge with room ``circ.capacity``
    = 1 + sum(ext) + sum(w), which no push fills, even where a caller raised
    an external: a firm paying exactly a set P of its unit out-edges out of
    ext_v + |P| holds at most ext_v + |P| + in_w(v), and |P| <= out_w(v), so
    without self-loops it holds less than the room. So flow walks die only
    at the exhausted source. Each push saturates at least one finite
    segment, bounding the number of pushes by |V| + 2|E| + 2.

    The walks cost O(V + E + the summed lengths of the pushed cycles), on
    two invariants. A node is dead once its walk reaches the exhausted
    source; dead nodes never revive, because a dead node's walk runs through
    dead nodes only and a push moves only the active edges of its cycle's
    nodes, which are not dead. And after a push the walk stays valid up to
    the first cycle node whose segment saturated: it resumes there, and the
    scan over start nodes resumes where it stopped.

    Flows are booked by a ledger, not on every push: a node's flow is fixed
    by how far it got along its schedule. Each segment that saturates adds
    its full length to its slot, and after the walks each node that has a
    segment left adds what it paid on it, the segment's length less
    ``rem``. So every slot carries the sum of the pushes through it.
    """
    dst, m = circ.dst, len(circ.slot)
    schedules = schedules.copy()
    schedules[circ.index[circ.source]] = [
        (m + 2 * i + 1, x) for i, x in enumerate(external) if x > 0
    ]

    n = len(schedules)
    flows = [0] * len(dst)
    seg_at = [0] * n
    rem = [segs[0][1] if segs else 0 for segs in schedules]
    to = [dst[segs[0][0]] if segs else -1 for segs in schedules]
    starts: range | list[int] = range(n)
    if cycle_rng is not None:
        starts = list(starts)
        cycle_rng.shuffle(starts)
    at = [-1] * n  # u's index in ``path`` while u is on the walk; -1 off it, -2 dead
    path: list[int] = []
    for u in starts:
        if at[u] == -2:
            continue
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
                cycle = path[p:]
                delta = min(map(rem.__getitem__, cycle))
                if delta <= 0:
                    raise InconsistentStateError(f"cycle push of size {delta}")
                first = -1
                for w in cycle:
                    r = rem[w] - delta
                    if r:
                        rem[w] = r
                        continue
                    if first < 0:
                        first = w
                    segs, k = schedules[w], seg_at[w]
                    slot, length = segs[k]
                    flows[slot] += length
                    k += 1
                    seg_at[w] = k
                    if k < len(segs):
                        slot, rem[w] = segs[k]
                        to[w] = dst[slot]
                    else:
                        to[w] = -1
                cut = at[first]
                u = first
                for w in path[cut:]:
                    at[w] = -1
                del path[cut:]
        at[u] = -2
        for w in path:
            at[w] = -2
        path.clear()
    for segs, k, r in zip(schedules, seg_at, rem):
        if k < len(segs):
            slot, length = segs[k]
            flows[slot] += length - r
    return flows


def _clearing_state(
    net: FinancialNetwork, real: list[Money], zero: Money | Fraction = 0
) -> ClearingState:
    """The state whose flows are ``real``, in slot order: inflows, then
    assets. ``zero`` sets the number type of the sums."""
    inflow = [zero] * len(net.names)
    for v, f in zip(net.dst, real):
        inflow[v] += f
    internal = dict(zip(net.nodes, inflow))
    assets = {v: net.external(v) + x for v, x in internal.items()}
    return ClearingState(assets, internal, FlowAssignment(dict(zip(net.ids, real))))


def kleene_clearing(
    net: FinancialNetwork,
    profile: StrategyProfile,
    start: KleeneStart = KleeneStart.TOP,
    budget: SearchBudget | None = None,
) -> ClearingState:
    """Fixed-point iteration of the asset operator; intended as a testing oracle.

    From the top (assets bounded by externals plus incoming capacity) the
    iterates decrease to the greatest fixed point; from the bottom they
    increase to the least. The operator is evaluated Jacobi-style, always
    from the full previous vector, and may take one iteration per unit of
    weight. Each iteration counts as one candidate against ``budget``; when
    the budget runs out, ``BudgetExhaustedError`` names the cap that did.

    Ranking strategies are monotone, so the iterates are monotone, integral
    and between 0 and the top vector, ``asset_ceiling`` of every firm in
    one pass over the edges: each iterate before the fixed point changes
    the asset sum, so there are at most sum(top) + 1 iterations. One more
    raises ``InconsistentStateError``.
    """
    for v in net.debtors():
        _check_ranking(net, v, profile.strategy_for(v))
    top = asset_ceiling(net)
    assets = top if start is KleeneStart.TOP else {v: 0 for v in net.nodes}
    cap = sum(top.values()) + 1
    payers = [profile.strategy_for(v) for v in net.debtors()]
    meter = _Meter(budget) if budget is not None else None
    iterations = 0
    while True:
        iterations += 1
        if iterations > cap:
            raise InconsistentStateError(f"no fixed point after {cap} iterations")
        if meter is not None:
            try:
                meter.charge()
            except _Exhausted as exc:
                raise BudgetExhaustedError(
                    f"stopped after {iterations - 1} iterations: {exc}"
                ) from None
        flows: dict[EdgeId, Money] = {}
        for strat in payers:
            flows.update(payment_vector(strat, net, assets[strat.owner]))
        state = _clearing_state(net, [flows[e] for e in net.ids])
        if state.assets == assets:
            return state
        assets = state.assets


@dataclass(frozen=True)
class ProRataResult:
    """Pro-rata clearing outcome. ``state`` is the greatest clearing state,
    so ``converged`` always holds; ``iterations`` counts the rounds of the
    fictitious default algorithm."""

    state: ClearingState
    converged: bool
    iterations: int


def clear_pro_rata(net: FinancialNetwork, budget: SearchBudget | None = None) -> ProRataResult:
    """Greatest fixed point of the proportional payment map, in exact rationals.

    The fictitious default algorithm (Eisenberg & Noe, Mgmt. Sci. 2001;
    Rogers & Veraart, Mgmt. Sci. 2013). Firm v owes L_v in all; one whose
    liabilities are all zero-weight pays nothing and keeps its assets. Start
    with every firm paying in full. Each round puts every firm whose assets
    fall below L_v into the default set D and solves D's payments exactly,
    with D paying all it holds and the others paying in full; a round that
    adds no firm ends the run. In the unknowns s_v = 1 - p_v / L_v, the
    shortfall of v's payment p_v, each row of that system is integral:

        L_v s_v - sum over u in D of w_uv s_u = L_v - e_v - sum over payers u of w_uv,

    where w_uv is what u owes v and e_v is v's external assets. It is solved
    by fraction-free (Bareiss) elimination on ints, one strongly connected
    block of D at a time, in topological order (``_shortfalls``).

    Why D only grows, and the result is the greatest clearing state: let
    p^k be the payments after round k (p^0 = L). For v in D_{k+1}, p^k_v is at
    least what v holds at p^k, with equality if v was in D_k. Writing the
    system as (I - Q) p_D = r, with Q the nonnegative share matrix of D, the
    inverse of I - Q, which exists (below), is the nonnegative series
    I + Q + Q^2 + ..., so p^{k+1} <= p^k: assets only fall, and a defaulter
    stays one. The same argument with the greatest clearing vector p*
    (which is at most what it holds, and at most L) gives p* <= p^k in every
    round. When no firm joins, p^k pays min(assets, L) everywhere, so it is
    a clearing vector above p*, hence p*. Each solve adds a firm to D, and D
    never holds all n firms: they form a closed set (below), or one owes
    nothing. So there are at most n - 1 solves.

    No block is singular. A block's matrix is irreducible and its columns
    are weakly diagonally dominant, strictly where a firm owes something
    outside the block; so it is singular only if the block is closed: every
    firm in it owes only firms in it. A closed set S never lies inside D.
    Take the first round after which S lies in D. At the payments before it,
    the firms of S that join hold less than they owe and the others hold
    exactly what they pay, so S holds less than it pays; yet S receives all
    of its own payments, so it holds at least that. Every block matrix is
    therefore a nonsingular M-matrix, whose leading minors (Bareiss's
    pivots) are positive. The final check that each firm pays min(assets,
    L) guards all of this and raises ``InconsistentStateError``.

    Each row elimination counts as one candidate against ``budget``, about
    k^2 / 2 for a block of k firms in each round; when the budget runs out,
    ``BudgetExhaustedError`` names the cap that did.
    """
    owed = {v: total_liabilities(net, v) for v in net.nodes}
    creditors: dict[NodeId, dict[NodeId, Money]] = {u: {} for u in net.nodes if owed[u] > 0}
    surplus = {v: net.external(v) - owed[v] for v in net.nodes}  # when all pay in full
    name = net.names.__getitem__
    edges = list(zip(map(name, net.src), map(name, net.dst), net.weights))
    for u, v, w in edges:
        if u in creditors and w:
            creditors[u][v] = creditors[u].get(v, 0) + w
            surplus[v] += w
    shortfall: dict[NodeId, Fraction] = {}
    loss: dict[NodeId, Fraction] = {}  # what the defaulters' shortfalls cost each creditor
    meter = _Meter(budget) if budget is not None else None
    rounds = 0
    while True:
        rounds += 1
        joining = [
            v for v in creditors if v not in shortfall and loss.get(v, 0) > surplus[v]
        ]
        if not joining:
            break
        try:
            shortfall, loss = _shortfalls(
                creditors, owed, surplus, [*shortfall, *joining], meter
            )
        except _Exhausted as exc:
            raise BudgetExhaustedError(f"stopped in round {rounds}: {exc}") from None

    paid = {u: 1 - shortfall.get(u, Fraction(0)) for u in creditors}
    flows = [w * paid[u] if u in paid else Fraction(0) for u, _, w in edges]
    state = _clearing_state(net, flows, Fraction(0))
    for v, a in state.assets.items():
        if a < 0 or (v in paid and owed[v] * paid[v] != min(a, owed[v])):
            raise InconsistentStateError(f"pro-rata state is not clearing at firm {v!r}")
    return ProRataResult(state, True, rounds)


def _shortfalls(
    creditors: dict[NodeId, dict[NodeId, Money]],
    owed: dict[NodeId, Money],
    surplus: dict[NodeId, Money],
    default: list[NodeId],
    meter: _Meter | None,
) -> tuple[dict[NodeId, Fraction], dict[NodeId, Fraction]]:
    """The shortfalls s_v of ``default`` when those firms pay all they hold
    and every other firm pays in full, and what they cost each creditor.

    Each strongly connected block of the defaulters' debts is solved once
    the blocks that pay into it are: its right-hand side is then known, and
    cleared of denominators before the integer solve."""
    in_default = set(default)
    shortfall: dict[NodeId, Fraction] = {}
    loss: dict[NodeId, Fraction] = {}
    for block in _blocks(default, lambda u: [v for v in creditors[u] if v in in_default]):
        pos = {v: i for i, v in enumerate(block)}
        rhs = [loss.get(v, 0) - surplus[v] for v in block]
        scale = math.lcm(*(Fraction(r).denominator for r in rhs))
        rows = [[0] * len(block) + [int(r * scale)] for r in rhs]
        for j, u in enumerate(block):
            rows[j][j] += owed[u]
            for v, w in creditors[u].items():
                if v in pos:
                    rows[pos[v]][j] -= w
        solution, det = _bareiss(rows, meter)
        for u, y in zip(block, solution):
            s = shortfall[u] = Fraction(y, det * scale)
            for v, w in creditors[u].items():
                loss[v] = loss.get(v, 0) + w * s
    return shortfall, loss


def _blocks(
    nodes: list[NodeId], successors: Callable[[NodeId], list[NodeId]]
) -> list[list[NodeId]]:
    """Strongly connected components of the graph on ``nodes``, each after
    every component with an edge into it (Tarjan, on an explicit stack)."""
    index: dict[NodeId, int] = {}
    low: dict[NodeId, int] = {}
    stack: list[NodeId] = []
    on_stack: set[NodeId] = set()
    blocks: list[list[NodeId]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, pending = work[-1]
            for w in pending:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    block = []
                    while not block or block[-1] != v:
                        block.append(stack.pop())
                        on_stack.discard(block[-1])
                    blocks.append(block)
    blocks.reverse()  # Tarjan completes a component after all it reaches
    return blocks


def _bareiss(rows: list[list[int]], meter: _Meter | None) -> tuple[list[int], int]:
    """Solve the square integer system given as augmented rows [A | b] by
    fraction-free (Bareiss) elimination without pivoting. Returns (y, d)
    with A (y / d) = b, d being det A; ``rows`` is consumed. After step t a
    row holds the minors bordering the leading t x t block, from column t
    on, so every pivot is a leading principal minor of A, and the caller's
    matrices have positive ones; a pivot that is not, or a
    back-substitution that does not divide exactly, raises
    ``InconsistentStateError``. Each step charges ``meter`` one unit per
    row it eliminates."""
    prev = 1
    for t in range(len(rows)):
        if meter is not None:
            meter.charge(len(rows) - t - 1)
        top = rows[t]
        pivot = top[0]
        if pivot <= 0:
            raise InconsistentStateError(f"non-positive pivot {pivot} in a pro-rata block")
        for r in range(t + 1, len(rows)):
            row = rows[r]
            f = row[0]
            rows[r] = [(pivot * a - f * b) // prev for a, b in zip(row[1:], top[1:])]
        prev = pivot
    y = [0] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        total = prev * row[-1] - sum(a * b for a, b in zip(row[1:-1], y[i + 1 :]))
        y[i], rest = divmod(total, row[0])
        if rest:
            raise InconsistentStateError("inexact back-substitution in a pro-rata block")
    return y, prev
