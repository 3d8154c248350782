"""Equilibrium analysis: optimal strong equilibria, best responses, verdicts, welfare.

The socially optimal strong equilibrium comes from a maximum-value circulation
turned into threshold strategies. The circulation is a unit-cost min-cost
flow: start with every liability paid in full and route the overdrawn firms'
excess payments, one cost unit per edge, to firms with slack, by primal-dual
successive shortest paths (Dijkstra for the potentials, then a Dinic max-flow
on the zero-reduced-cost arcs). At most n + 1 phases run, whatever the
weights, and ties follow node ids and edge ids only. The potentials are fixed
within a phase, so each phase lists every node's zero-reduced-cost arcs once,
in adjacency order, and its Dinic search walks only those lists: it meets
the arcs it can use in the same order as a walk over every arc would, so the
returned optimum does not depend on the lists.

Best responses, Nash/strong verification, and full enumeration are exact
desk-scale searches: deciding equilibrium existence and computing best
responses are NP-hard in general, so every search carries an explicit budget
and flags non-exhaustive results instead of truncating silently.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    UNBOUNDED,
    CirculationNetwork,
    ClearingState,
    EdgeId,
    FinancialNetwork,
    FinclearError,
    FlowAssignment,
    InconsistentStateError,
    Money,
    NodeId,
    SearchBudget,
    UnboundedType,
    _Exhausted,
    _Meter,
    asset_ceiling,
    build_circulation_network,
    decompose_circulation,
    node_key,
    total_liabilities,
)
from .strategies import (
    EdgeRankingStrategy,
    RankingStrategy,
    StrategyProfile,
    ThresholdRankingStrategy,
    behavior_signature,
    check_strategy,
)
from .clearing import _blocks, cleared_state, clear_circulation, compile_schedule


class SearchSpace(Enum):
    """Which strategies a deviation or enumeration may use."""

    EDGE = "edge"
    THRESHOLD = "threshold"


class Verdict(Enum):
    NASH = "nash"
    NOT_NASH = "not-nash"
    STRONG = "strong"
    NOT_STRONG = "not-strong"


class _Game:
    """One payoff table per game, built once per public call; every search reads it.

    A firm's tuple of strategies is built on first use: its deduplicated
    ``strategy_space`` (the ``space_size[v]`` entries that are searched),
    then its given or ``fixed`` strategy if none of them behaves like it. A
    profile is a mixed-radix int over indices into these tuples, counted
    from the given profile (code 0): v at index i adds (i - home_v) *
    stride_v, home_v being the index of v's given strategy (0 if none). A
    firm never searched keeps its given strategy and adds no digit. Each new
    tuple becomes the most significant digit, which leaves stored codes
    valid; ``codes`` builds its firms' tuples last one first, so the first
    firm in ``net.nodes`` order is most significant and codes come in
    ``itertools.product`` order. The table holds one asset tuple (indexed
    like ``circ.nodes``) per code, cleared on the first lookup; equal tuples
    are one object. The meter is charged per strategy candidate as a tuple
    is built and per table miss: each candidate and each distinct profile is
    charged once per game. Each given strategy is checked and compiled in
    one pass (``compile_schedule``) once, here. A searched option's schedule
    is the segments ``strategy_space`` compiled it to, plus v's surplus
    tail; its home is found by the ``behavior_signature`` of the given
    schedule and reuses it. So no strategy is checked or compiled twice, and
    no clear checks or compiles.

    A clear walks the strongly connected blocks of the liability graph in
    topological order (``_blocks`` on ``circ`` indices, once per game).
    Payments move only along edges, so the asset map is block-triangular and
    monotone, and the greatest fixed point of such a system is the upstream
    block's greatest fixed point followed by the downstream block's greatest
    fixed point given it: the whole's upstream part is a fixed point
    upstream, and the pair built in order is one of the whole. A valid
    network has no self-loop, so a one-firm block lies on no cycle: the firm
    holds its external plus its inflow, which its own strategy cannot change,
    and pays that down its schedule; it never gains by deviating. A larger
    block's payments on its members' out-slots depend only on its
    members' schedules and on what each member holds on entry, so they are
    memoized per game under (the ids of those schedules, those amounts); the
    entry holds the schedules, so no id in a live key is ever reused. On the
    first memo miss, one ``clear_circulation`` run clears that block and
    everything after it, the firms of earlier blocks paying what they hold
    into their surplus slots, and every later block's entry is filled from
    that run. A block holding every firm (a ring, the SAT gadget) keeps no
    memo, as its key would repeat the table's: such a game makes one kernel
    run per table miss.
    """

    def __init__(
        self,
        net: FinancialNetwork,
        budget: SearchBudget,
        space: SearchSpace,
        given: Mapping[NodeId, RankingStrategy] | StrategyProfile | None,
    ) -> None:
        self.net = net
        self.space = space
        self.circ = build_circulation_network(net)
        self.meter = _Meter(budget)
        if isinstance(given, StrategyProfile):
            given = given.strategies
        self.given = dict(given or {})
        self.firms = net.debtors()
        self.liabilities = {v: total_liabilities(net, v) for v in self.firms}
        unset = set(self.firms).difference(self.given)
        self.base = [  # None for a firm with out-edges and no given strategy
            None if v in unset else compile_schedule(self.circ, v, self.given.get(v))
            for v in self.circ.nodes
        ]
        self.options: dict[NodeId, tuple[RankingStrategy, ...]] = {}
        self.compiled: list[tuple[int, tuple[list, ...]]] = []  # (v's index, one schedule per option)
        self.space_size: dict[NodeId, int] = {}
        self.home: dict[NodeId, int | None] = {}
        self.stride: dict[NodeId, int] = {}
        self.radix = 1  # product of the radices of the tuples built so far
        self.offset = 0  # sum of home_v * stride_v: code + offset is plain mixed radix
        self.table: dict[int, tuple[Money, ...]] = {}
        self.states: dict[tuple[Money, ...], tuple[Money, ...]] = {}  # one tuple per distinct state
        circ, m = self.circ, len(self.circ.slot)
        out: list[list[int]] = [[] for _ in circ.nodes]  # base slots by payer
        for k, i in enumerate(circ.src[:m]):
            out[i].append(k)
        blocks = [b for b in _blocks(range(len(out)), lambda i: [circ.dst[k] for k in out[i]]) if out[b[0]]]
        self.payers = [i for b in blocks for i in b]
        self.block = {circ.nodes[i]: n for n, b in enumerate(blocks) if len(b) > 1 for i in b}
        self.blocks = [  # (members, their base out-slots, memo or None, payers before them)
            (b, [k for i in b for k in out[i]], {} if 1 < len(b) < len(self.firms) else None, start)
            for b, start in zip(blocks, itertools.accumulate(map(len, blocks), initial=0))
        ]

    def strategies(self, v: NodeId) -> tuple[RankingStrategy, ...]:
        opts = self.options.get(v)
        if opts is not None:
            return opts
        space = strategy_space(self.net, v, self.space, meter=self.meter)
        at, home = self.circ.index[v], None
        opts, tail = tuple(space), (len(self.circ.slot) + 2 * at, self.circ.capacity)
        schedules = [[*segments, tail] for segments in space.values()]
        self.space_size[v] = len(opts)
        if self.given.get(v) is not None:  # home: the first option that behaves like the given one
            sigs = [behavior_signature(x, self.net) for x in (*space.values(), self.base[at][:-1])]
            home = sigs.index(sigs[-1])
            if home == len(opts):
                opts += (self.given[v],)
                schedules.append(None)
            schedules[home] = self.base[at]
        self.compiled.append((at, tuple(schedules)))
        self.options[v], self.home[v], self.stride[v] = opts, home, self.radix
        self.offset += (home or 0) * self.radix
        self.radix *= len(opts)
        return opts

    def index(self, code: int, v: NodeId) -> int:
        """The index of v's strategy in the profile ``code``."""
        return (code + self.offset) // self.stride[v] % len(self.options[v])

    def move(self, code: int, v: NodeId, i: int) -> int:
        """The profile ``code`` with v switched to its strategy ``i``."""
        return code + (i - self.index(code, v)) * self.stride[v]

    def codes(self, firms: Sequence[NodeId]) -> Iterable[int]:
        """Every profile varying ``firms`` over their searched strategies,
        the others at their given ones, in ``itertools.product`` order."""
        for v in reversed(firms):
            self.strategies(v)
        digits = [
            [(i - (self.home[v] or 0)) * self.stride[v] for i in range(self.space_size[v])]
            for v in firms
        ]
        return map(sum, itertools.product(*digits))

    def moved(self, code: int) -> Iterator[tuple[NodeId, RankingStrategy]]:
        """(v, strategy) for each searched firm whose strategy in ``code`` is not its given one."""
        for v, opts in self.options.items():
            i = self.index(code, v)
            if i != self.home[v]:
                yield v, opts[i]

    def profile(self, code: int) -> StrategyProfile:
        return StrategyProfile({**self.given, **dict(self.moved(code))})

    def schedules(self, code: int) -> list:
        schedules = self.base.copy()
        code += self.offset
        for at, compiled in self.compiled:  # built, so listed, in stride order
            code, i = divmod(code, len(compiled))
            schedules[at] = compiled[i]
        return schedules

    def assets(self, schedules: list, external: list[Money]) -> tuple[Money, ...]:
        """Each node's ``external`` plus its inflow, indexed like ``circ.nodes``, cleared block by block."""
        circ, m, dst = self.circ, len(self.circ.slot), self.circ.dst
        if None in schedules:  # a firm with out-edges and no strategy: raises ProfileError
            compile_schedule(circ, circ.nodes[schedules.index(None)], None)
        held, flows = external.copy(), None  # flows: the kernel's, once a block has missed
        for members, slots, memo, start in self.blocks:
            paid = flows
            if memo is not None:
                key = (*[id(schedules[i]) for i in members], *[held[i] for i in members])
                if paid is None:
                    paid = memo.get(key, (None,))[0]
            if paid is None and len(members) == 1:
                x = held[members[0]]
                for k, length in schedules[members[0]]:
                    if k >= m or not x:
                        break
                    pay = x if x < length else length
                    held[dst[k]] += pay
                    x -= pay
                continue
            if paid is None:
                block = schedules.copy()
                for i in self.payers[:start]:  # cleared: they pay what they hold into surplus
                    block[i] = [(m + 2 * i, circ.capacity)]
                paid = flows = clear_circulation(circ, block, held)
            if memo is not None and paid is flows:  # the entry keeps the ids in its key live
                memo[key] = flows, [schedules[i] for i in members]
            for k in slots:
                held[dst[k]] += paid[k]
        return tuple(held)

    def clear(self, code: int) -> tuple[Money, ...]:
        assets = self.table.get(code)
        if assets is None:
            self.meter.charge()
            assets = self.assets(self.schedules(code), self.circ.external)
            assets = self.table[code] = self.states.setdefault(assets, assets)
        return assets


def strategy_space(
    net: FinancialNetwork,
    v: NodeId,
    space: SearchSpace,
    meter: "_Meter | None" = None,
) -> dict[RankingStrategy, list[tuple[int, Money]]]:
    """All candidate strategies for one firm, in canonical order, each with
    its ``check_strategy`` segments: every candidate is checked and compiled
    once, here, and the segments of each kept one are its schedule's.

    Edge space: permutations of the outgoing edge ids in lexicographic order.
    Threshold space: for each permutation, every threshold vector, ascending.
    Candidates are collapsed by their node-aggregated payment behavior
    (``behavior_signature``); clearing states depend on strategies only
    through that, so dropping behavioral duplicates never changes a verdict,
    and keeping first occurrences preserves canonical tie-breaking.

    Two out-edges with the same creditor and the same weight are
    interchangeable, and a permutation that ranks such a pair against
    ascending id order is skipped uncharged. It changes no kept strategy and
    no order: let e < f be interchangeable and let p rank f before e.
    Swapping e and f in p, and their thresholds with them, gives a candidate
    with the same segment lengths to the same creditors, so the same
    behavior; and its permutation is smaller in lexicographic order (the
    first place where the two differ holds e instead of f), so it comes
    earlier. The first candidate of every behavior therefore ranks every
    interchangeable pair in ascending order, and only later duplicates are
    skipped.
    """
    out_ids = net.out_ids(v)
    if not out_ids:
        return {}

    kind = {e: (net.dst[net.slot[e]], net.weights[net.slot[e]]) for e in out_ids}
    perms: Iterable[tuple[EdgeId, ...]] = itertools.permutations(out_ids)
    if len(set(kind.values())) < len(out_ids):  # some out-edges are interchangeable
        perms = (p for p in perms if all(
            a < b or kind[a] != kind[b] for a, b in itertools.combinations(p, 2)))
    if space is SearchSpace.EDGE:
        candidates: Iterable[RankingStrategy] = (EdgeRankingStrategy(v, p) for p in perms)
    else:
        ranges = [range(net.weights[net.slot[i]] + 1) for i in out_ids]
        candidates = (
            ThresholdRankingStrategy.of(v, p, dict(zip(out_ids, taus)))
            for p in perms
            for taus in itertools.product(*ranges)
        )
    kept: dict[tuple, tuple[RankingStrategy, list]] = {}
    for strat in candidates:
        if meter is not None:
            meter.charge()
        segments = check_strategy(strat, net)
        kept.setdefault(behavior_signature(segments, net), (strat, segments))
    return dict(kept.values())


# ---------------------------------------------------------------------------
# Maximum-value circulation and the optimal strong equilibrium


def max_value_circulation(circ: CirculationNetwork) -> FlowAssignment:
    """An integral circulation maximizing total flow over all edges.

    In every optimum each (source, firm) edge is saturated, so the value is
    (flow on real edges) + 2 * (total external assets), and the task is to
    maximize real flow subject to 0 <= f_e <= w_e and
    out(v) - in(v) <= external(v) at every firm. Start with every real edge
    full; a firm overdrawn by b(v) = out_w(v) - in_w(v) - external(v) > 0
    must shed b(v). Taking a unit off edge u -> v relieves u and burdens v,
    so reductions flow along the real edges at cost 1 per unit per edge,
    from a super-source S (capacity b(v) into each overdrawn firm) to a
    super-sink T (capacity -b(v) out of each firm with slack), and the
    cheapest way to drain S is the optimum.

    Primal-dual successive shortest paths: Dijkstra on reduced costs updates
    the node potentials, then a Dinic max-flow runs on the zero-reduced-cost
    arcs; repeat until S is drained. Every phase raises the S-T distance by
    at least 1 and a simple path costs at most n, so there are at most n + 1
    phases, and none depends on the weights. Deterministic: nodes in
    ``node_key`` order, real arcs in edge-id order, S/T arcs in node order,
    heap ties broken by node index. In the result every (source, firm) edge
    is saturated and each (firm, source) edge carries the firm's surplus.

    The potentials change only between phases, so whether an arc has
    reduced cost 0 is fixed for a whole phase; so is it for the arc's
    reverse, whose reduced cost is the negation. After each potential update
    every node's zero-reduced-cost arcs are listed once, in adjacency order,
    and the Dinic search tests only capacity and level on those lists. An
    arc left off a list would have failed the reduced-cost test at every
    look, so the search meets the remaining arcs in the same order as a walk
    over all of them: the same augmenting paths, hence the same optimum.
    """
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
    heappush, heappop = heapq.heappush, heapq.heappop
    while to_shed > 0:
        dist: list[int | None] = [None] * (n + 2)
        settled = [False] * (n + 2)
        dist[S] = 0
        heap = [(0, S)]
        while heap:
            d, u = heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            if u == T:
                break
            du = d + pot[u]
            for a in adj[u]:
                if cap[a] > 0:
                    v = head[a]
                    nd = du + cost[a] - pot[v]
                    dv = dist[v]
                    if dv is None or nd < dv:
                        dist[v] = nd
                        heappush(heap, (nd, v))
        if not settled[T]:
            raise InconsistentStateError(
                f"no residual path drains the remaining overdraft {to_shed}"
            )
        reach = dist[T]
        for v in range(n + 2):
            pot[v] += dist[v] if settled[v] else reach
        zero = [
            [a for a in arcs if cost[a] + pot[u] == pot[head[a]]] for u, arcs in enumerate(adj)
        ]

        while True:  # Dinic on the zero-reduced-cost arcs
            level: list[int | None] = [None] * (n + 2)
            level[S] = 0
            queue = deque([S])
            while queue:
                u = queue.popleft()
                next_level = level[u] + 1
                for a in zero[u]:
                    v = head[a]
                    if level[v] is None and cap[a] > 0:
                        level[v] = next_level
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
                arcs = zero[u]
                next_level = level[u] + 1
                while nxt[u] < len(arcs):
                    a = arcs[nxt[u]]
                    if cap[a] > 0 and level[head[a]] == next_level:
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
class OptimalStrongEquilibrium:
    profile: StrategyProfile
    state: ClearingState
    circulation: FlowAssignment
    revenue: Money


def optimal_strong_equilibrium(net: FinancialNetwork) -> OptimalStrongEquilibrium:
    """The revenue-maximizing strong equilibrium of the coin game.

    Computes a maximum-value circulation f*, fixes thresholds at f* with
    ascending-edge-id rankings, and clears. The cleared flows must reproduce
    f* on the real edges, and the revenue equals the circulation's total value
    minus all external assets; both identities are enforced.
    """
    circ = build_circulation_network(net)
    fstar = max_value_circulation(circ)
    strategies: dict[NodeId, RankingStrategy] = {}
    for v in net.debtors():
        out_ids = net.out_ids(v)
        strategies[v] = ThresholdRankingStrategy.of(
            v, tuple(out_ids), {e: fstar.get(e) for e in out_ids}
        )
    profile = StrategyProfile.of(strategies)
    state = cleared_state(circ, [compile_schedule(circ, v, strategies.get(v)) for v in circ.nodes])
    for e in net.ids:
        if state.flows.get(e) != fstar.get(e):
            raise InconsistentStateError(
                f"clearing flow on edge {e} deviates from the optimal circulation"
            )
    rev = sum(state.assets[v] for v in net.nodes)
    if rev != fstar.total() - net.total_external():
        raise InconsistentStateError("revenue does not match the circulation identity")
    return OptimalStrongEquilibrium(profile, state, fstar, rev)


# ---------------------------------------------------------------------------
# Exact best response


@dataclass(frozen=True)
class BestResponse:
    strategy: RankingStrategy
    value: Money
    exhaustive: bool
    evaluated: int


class _ExactPayoffs:
    """v's inflow when it pays exactly a chosen set of its unit out-edges.

    h(P) clears the game's given schedules with v's replaced by the edges of
    P, sorted, at length 1 each, then its surplus, and v's external raised
    by |P|, so v is solvent and pays P in full; no network is rebuilt.
    h is monotone in P, and adding one unit edge raises it by at most 1:
    every other firm's payment response is 1-Lipschitz in its assets, so flow
    conservation bounds the extra inflow at v by the one extra unit v emits.
    """

    def __init__(self, game: _Game, v: NodeId):
        self.game = game
        self.v = v
        self._cache: dict[tuple[EdgeId, ...], Money] = {}

    def inflow(self, subset: Sequence[EdgeId]) -> Money:
        key = tuple(sorted(subset))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        game, circ = self.game, self.game.circ
        game.meter.charge()
        i = circ.index[self.v]
        schedules = game.base.copy()
        schedules[i] = [(circ.slot[e], 1) for e in key] + [(len(circ.slot) + 2 * i, circ.capacity)]
        external = circ.external.copy()
        external[i] += len(key)
        value = self._cache[key] = game.assets(schedules, external)[i] - external[i]
        return value


class _Done(Exception):
    """Ends the subset search: its best value has reached the upper bound."""


def _grow(
    payoffs: _ExactPayoffs, ext: Money, bound: Money,
    chosen: list[EdgeId], pool: Sequence[EdgeId], best: list,
) -> None:
    """Extend ``chosen`` by each edge of ``pool`` in turn, depth-first, and
    keep in ``best`` = [value, set] every strictly better self-supporting
    set; raises ``_Done`` once the value reaches ``bound``."""
    for k, e in enumerate(pool):
        chosen.append(e)
        val = ext + payoffs.inflow(chosen)
        if len(chosen) > val:
            chosen.pop()
            continue  # not self-supporting; no superset can be
        if val > best[0]:
            best[:] = val, tuple(chosen)
            if val >= bound:
                raise _Done()
        if val + (len(pool) - k - 1) > best[0]:
            _grow(payoffs, ext, bound, chosen, pool[k + 1 :], best)
        chosen.pop()


def _first_hit(
    payoffs: _ExactPayoffs, ext: Money, target: Money,
    chosen: list[EdgeId], pool: Sequence[EdgeId], want: int,
) -> list[EdgeId] | None:
    """The first self-supporting set of ``want`` edges, ``chosen`` followed
    by edges of ``pool`` in lexicographic order, whose value is ``target``."""
    if len(chosen) == want:
        return list(chosen) if ext + payoffs.inflow(chosen) == target else None
    for k, e in enumerate(pool):
        if len(chosen) + 1 + len(pool) - k - 1 < want:
            return None
        chosen.append(e)
        val = ext + payoffs.inflow(chosen)
        feasible = len(chosen) <= val and val + (want - len(chosen)) >= target
        hit = _first_hit(payoffs, ext, target, chosen, pool[k + 1 :], want) if feasible else None
        chosen.pop()
        if hit is not None:
            return hit
    return None


def _best_response_unit_subsets(
    game: _Game, v: NodeId
) -> tuple[EdgeRankingStrategy, Money, bool]:
    """Exact best response over edge rankings when all out-edges have weight <= 1.

    With unit edges a ranking's outcome is determined by the set P of edges it
    actually pays, and the optimum equals max over self-supporting sets
    (those with |P| <= external(v) + h(P)) of external(v) + h(P):
    the optimal ranking's paid prefix is such a set, and conversely any
    self-supporting set yields a pre-fixed point for the ranking (sorted P,
    then the rest), so the maximal clearing state attains its value. The
    search walks subsets depth-first (``_grow``); once a set is not
    self-supporting no superset is (the Lipschitz property), which prunes
    the subtree, and the value of a subtree is bounded by the current value
    plus the edges left. Ties break to the smallest paid set, by size then
    lexicographic order (``_first_hit``). The search charges each subset it
    clears; the closing check that the ranking reproduces the value is not a
    candidate and is not charged. Both walks are module-level functions, so
    no call leaves a reference cycle through the game.
    """
    net = game.net
    ext = net.external(v)
    out_ids = net.out_ids(v)
    unit_ids = [e for e in out_ids if net.weights[net.slot[e]] == 1]
    zero_ids = [e for e in out_ids if net.weights[net.slot[e]] == 0]
    payoffs = _ExactPayoffs(game, v)

    best = [ext + payoffs.inflow(()), ()]  # [value, paid set]
    exhausted = False
    try:
        root_ub = min(ext + payoffs.inflow(unit_ids), asset_ceiling(net)[v])
        if unit_ids and best[0] < root_ub:
            _grow(payoffs, ext, root_ub, [], unit_ids, best)
    except _Done:
        pass
    except _Exhausted:
        exhausted = True
    best_val, best_set = best

    # Canonical representative: the first maximizing set by size, then lex.
    if not exhausted:
        try:
            for size in range(0, len(best_set) + 1):
                hit = _first_hit(payoffs, ext, best_val, [], unit_ids, size)
                if hit is not None:
                    best_set = tuple(hit)
                    break
        except _Exhausted:
            exhausted = True

    rest = sorted(set(unit_ids) - set(best_set))
    strategy = EdgeRankingStrategy(v, (*sorted(best_set), *rest, *zero_ids))
    if not exhausted:
        schedules = game.base.copy()
        schedules[game.circ.index[v]] = compile_schedule(game.circ, v, strategy)
        check = cleared_state(game.circ, schedules)
        if check.assets[v] != best_val:
            raise InconsistentStateError(
                "subset search value does not match the cleared best response"
            )
    return strategy, best_val, not exhausted


def _best_response(game: _Game, v: NodeId) -> BestResponse:
    """v's best response against the game's given profile: the first best
    strategy of v's searched tuple, walked as the codes (i - home_v) * stride_v."""
    net = game.net
    if not net.out_ids(v):
        raise FinclearError(f"{v!r} has no outgoing edges; nothing to optimize")
    used_before = game.meter.used
    current = game.given.get(v)
    if current is not None:
        base = game.clear(0)[game.circ.index[v]]
        if base >= game.liabilities[v]:
            # A solvent firm's strategy never changes the clearing state.
            return BestResponse(current, base, True, game.meter.used - used_before)

    all_unit = all(net.weights[net.slot[e]] <= 1 for e in net.out_ids(v))
    if game.space is SearchSpace.EDGE and all_unit:
        strategy, value, exhaustive = _best_response_unit_subsets(game, v)
        return BestResponse(strategy, value, exhaustive, game.meter.used - used_before)

    best_strat: RankingStrategy | None = None
    best_val: Money = -1
    exhausted = False
    try:
        opts = game.strategies(v)
        for i in range(game.space_size[v]):
            value = game.clear(game.move(0, v, i))[game.circ.index[v]]
            if value > best_val:
                best_val = value
                best_strat = opts[i]
    except _Exhausted:
        exhausted = True
    if best_strat is None:
        best_strat = EdgeRankingStrategy(v, tuple(net.out_ids(v)))
        best_val = 0
    return BestResponse(best_strat, best_val, not exhausted, game.meter.used - used_before)


def best_response_exact(
    net: FinancialNetwork,
    profile: StrategyProfile,
    v: NodeId,
    space: SearchSpace = SearchSpace.EDGE,
    budget: SearchBudget = SearchBudget(),
) -> BestResponse:
    """The exact maximum of v's clearing assets over its strategy space.

    Other firms' strategies stay fixed. On budget exhaustion the best strategy
    found so far is returned with ``exhaustive=False``.
    """
    game = _Game(net, budget, space, profile)
    try:
        return _best_response(game, v)
    except _Exhausted:
        return BestResponse(EdgeRankingStrategy(v, tuple(net.out_ids(v))), 0, False, game.meter.used)


# ---------------------------------------------------------------------------
# Equilibrium verification


@dataclass(frozen=True)
class DeviationWitness:
    """A verified profitable deviation: every member strictly gains."""

    coalition: tuple[NodeId, ...]
    new_strategies: Mapping[NodeId, RankingStrategy]
    before: Mapping[NodeId, Money]
    after: Mapping[NodeId, Money]


@dataclass(frozen=True)
class EquilibriumReport:
    verdict: Verdict
    witness: DeviationWitness | None
    search_space: SearchSpace
    exhaustive: bool


def _insolvent_firms(game: _Game, assets: Sequence[Money]) -> list[NodeId]:
    """Firms that can gain by deviating: insolvent, not alone in their block (``game.block``)."""
    at = game.circ.index
    return [v for v, owed in game.liabilities.items() if assets[at[v]] < owed and v in game.block]


def is_nash(
    net: FinancialNetwork,
    profile: StrategyProfile,
    space: SearchSpace = SearchSpace.EDGE,
    budget: SearchBudget = SearchBudget(),
) -> EquilibriumReport:
    """Check every firm against its exact best response.

    Solvent firms are skipped: replacing a solvent firm's strategy never
    changes the maximal clearing state; so are firms alone in their block
    (``_Game``). A found witness settles NOT_NASH conclusively; a NASH
    verdict is exhaustive only if every search finished within budget.
    """
    game = _Game(net, budget, space, profile)
    exhaustive = True
    try:
        base = game.clear(0)
        for v in _insolvent_firms(game, base):
            br = _best_response(game, v)
            exhaustive = exhaustive and br.exhaustive
            before = base[game.circ.index[v]]
            if br.value > before:
                witness = DeviationWitness((v,), {v: br.strategy}, {v: before}, {v: br.value})
                return EquilibriumReport(Verdict.NOT_NASH, witness, space, True)
    except _Exhausted:  # the subset search can run out before it has a value
        exhaustive = False
    return EquilibriumReport(Verdict.NASH, None, space, exhaustive)


def _coalition_members(game: _Game, assets: Sequence[Money]) -> list[NodeId]:
    """Firms that can belong to the first profitable coalition found.

    These are the firms of ``_insolvent_firms`` in the base state ``assets``
    with at least two strategies (a single behavior cannot change anything).
    Dropping the others changes no verdict and no witness:

    * A coalition member v that is solvent in the base state and strictly
      gains is solvent in the deviated state too.
    * A solvent firm's strategy leaves the maximal clearing state unchanged:
      the state is still a fixed point under any strategy of v, so the
      maximal state with another strategy dominates it, keeps v solvent,
      and is therefore a fixed point of the first profile as well.
    * So if v acts alone its state is the base state and it does not gain;
      otherwise the coalition without v reaches the same state, every other
      member still strictly gains, and that smaller coalition is tested
      first, since coalitions are tried by ascending size.
    * The first witness therefore has no such member, nor a firm alone in
      its block: it lies in one block (``_is_strong``), and such a firm
      never gains alone (``_Game``). The coalitions and joint deviations
      tried before it over the kept firms are, in order, a subsequence of
      those tried over all firms. Verdicts and witnesses are identical.
    """
    firms = sorted(_insolvent_firms(game, assets), key=node_key)
    for v in firms:
        game.strategies(v)
    return [v for v in firms if game.space_size[v] >= 2]


def _is_strong(game: _Game, code: int) -> EquilibriumReport:
    """The first profitable coalition by size, then ``combinations`` order,
    of those inside one block (each block's, merged by position), and its
    first joint move in ``product`` order that changes every member.

    If C gains and B is a block of C reached by no other block of C, B's
    inflows stay, so the smaller C ∩ B gains as in C: the first witness lies
    in one block.

    Each member's digit list skips its current index, so the (coalition,
    move) pairs tried are the ones of the walk over every option, in the
    same order, less those that keep some member's strategy; no dropped
    pair is the first witness of that walk. Let (C, x) keep the members K
    and change C' = C minus K. If C' is empty, x is the base profile, where
    no member gains. Else (C', x restricted to C') reaches the same profile,
    every member of C' gains there if every member of C does, C' lies in
    C's block, and it is smaller, so that walk tries it first. Hence the
    first witness changes every member, the pairs tried here are an ordered
    subsequence of that walk's that contains it, and verdicts and witnesses
    are the same. A dropped move's profile, (C', x restricted to C') or the
    base, is cleared before it here too, so the candidate charges are the
    same. A coalition of m members with s options each tries (s - 1)^m
    moves where the full walk tries s^m.
    """
    base = game.clear(code)
    members = _coalition_members(game, base)
    at, stride, options = game.circ.index, game.stride, game.options
    block = [game.block[v] for v in members]
    groups = [[j for j, b in enumerate(block) if b == x] for x in set(block)]
    for size in range(1, max(map(len, groups), default=0) + 1):
        for positions in heapq.merge(*(itertools.combinations(g, size) for g in groups)):
            coalition = tuple(members[j] for j in positions)
            here = [game.index(code, v) for v in coalition]
            start = code - sum(h * stride[v] for v, h in zip(coalition, here))
            digits = [
                [i * stride[v] for i in range(game.space_size[v]) if i != h]
                for v, h in zip(coalition, here)
            ]
            for combo in itertools.product(*digits):
                game.meter.check_deadline()  # most of these profiles are table hits
                after = game.clear(start + sum(combo))
                if all(after[at[v]] > base[at[v]] for v in coalition):
                    witness = DeviationWitness(
                        coalition,
                        {v: options[v][d // stride[v]] for v, d in zip(coalition, combo)},
                        {v: base[at[v]] for v in coalition},
                        {v: after[at[v]] for v in coalition},
                    )
                    return EquilibriumReport(Verdict.NOT_STRONG, witness, game.space, True)
    return EquilibriumReport(Verdict.STRONG, None, game.space, True)


def is_strong_equilibrium(
    net: FinancialNetwork,
    profile: StrategyProfile,
    budget: SearchBudget = SearchBudget(),
    space: SearchSpace = SearchSpace.EDGE,
) -> EquilibriumReport:
    """Exhaustive coalition check: no group may deviate so all members strictly gain.

    Coalitions are tried in ``_is_strong``'s order, joint deviations over
    the given space. For games whose strategies stand for monotone integer
    schedules, the threshold space is the right one: any coalition's
    coin-schedule deviation outcome is reproduced by threshold strategies,
    so an exhaustive threshold verdict certifies the full game.
    """
    game = _Game(net, budget, space, profile)
    try:
        return _is_strong(game, 0)
    except _Exhausted:
        return EquilibriumReport(Verdict.STRONG, None, space, False)


# ---------------------------------------------------------------------------
# Enumeration


@dataclass(frozen=True)
class EquilibriumFinding:
    profile: StrategyProfile
    state: ClearingState
    report: EquilibriumReport


@dataclass(frozen=True)
class EnumerationResult:
    findings: tuple[EquilibriumFinding, ...]
    exhaustive: bool


def _deviates(game: _Game, code: int, assets: Sequence[Money]) -> bool:
    """Whether a firm of ``_insolvent_firms`` in ``code``'s state ``assets``
    gains by switching alone to another of its strategies; each firm's digit
    is decoded once, and its options are tried in index order."""
    at = game.circ.index
    for v in _insolvent_firms(game, assets):
        count = len(game.strategies(v))
        here, stride, before = game.index(code, v), game.stride[v], assets[at[v]]
        start = code - here * stride
        for i in range(count):
            if i != here and game.clear(start + i * stride)[at[v]] > before:
                return True
    return False


def _enumerate(
    game: _Game, check_strong: bool, with_state: bool = False
) -> tuple[list[tuple[int, EquilibriumReport, ClearingState | None]], Money | None, bool]:
    """One pass over every profile of the non-fixed firms, in product order.

    Returns the equilibria as (code, report, state), the highest revenue of
    any profile of the pass (None if none was cleared), and whether the pass
    finished within budget. With ``with_state`` each equilibrium is cleared
    again for its state as it is found, after a deadline check, so a pass
    overruns its timeout by at most one kernel run and keeps every state.
    """
    firms = [v for v in game.firms if v not in game.given]
    found: list[tuple[int, EquilibriumReport, ClearingState | None]] = []
    best: Money | None = None
    try:
        for code in game.codes(firms):
            assets = game.clear(code)
            if best is None or sum(assets) > best:
                best = sum(assets)
            if _deviates(game, code, assets):
                continue
            if check_strong:
                report = _is_strong(game, code)
            else:
                report = EquilibriumReport(Verdict.NASH, None, game.space, True)
            state = None
            if with_state:
                game.meter.check_deadline()
                state = cleared_state(game.circ, game.schedules(code))
            found.append((code, report, state))
    except _Exhausted:
        return found, best, False
    return found, best, True


def enumerate_equilibria(
    net: FinancialNetwork,
    space: SearchSpace = SearchSpace.EDGE,
    budget: SearchBudget = SearchBudget(),
    fixed: Mapping[NodeId, RankingStrategy] | StrategyProfile | None = None,
    check_strong: bool = False,
) -> EnumerationResult:
    """All pure equilibria over the product of per-firm strategy spaces.

    ``fixed`` pins strategies that are part of the game definition (gadget
    firms with forced behavior); they are not enumerated, but candidates are
    still verified against deviations by every firm, fixed ones included, so
    reported equilibria are equilibria of the full game. An empty, exhaustive
    result certifies non-existence within the space.
    """
    game = _Game(net, budget, space, fixed)
    found, _, exhaustive = _enumerate(game, check_strong, with_state=True)
    findings = [EquilibriumFinding(game.profile(code), state, report) for code, report, state in found]
    return EnumerationResult(tuple(findings), exhaustive)


# ---------------------------------------------------------------------------
# The min-max cycle bound


@dataclass(frozen=True)
class CycleBound:
    value: Money
    exact: bool


def min_max_cycle_d(
    net: FinancialNetwork, budget: SearchBudget = SearchBudget()
) -> CycleBound:
    """min over optimal circulations and their cycle decompositions of the
    longest cycle, in the circulation network (auxiliary edges count).

    Optimal circulations are enumerated as real-edge flow vectors: in any
    optimum every (source, firm) edge is saturated, so auxiliary flows are
    forced and maximizing total value means maximizing real flow subject to
    out(v) <= external(v) + in(v) per firm. For each optimum, the smallest L
    such that the circulation splits into simple cycles of length <= L is
    found by memoized peeling. Both searches are depth-first on explicit
    stacks, so their depth is not bounded by Python's recursion limit.
    Exponential by nature; the budget caps the search and inexact results
    are flagged. A zero optimal circulation (nothing can flow) reports 0,
    exact.
    """
    circ = build_circulation_network(net)
    return _min_max_cycle_d(circ, max_value_circulation(circ), budget)


def _min_max_cycle_d(
    circ: CirculationNetwork, fstar: FlowAssignment, budget: SearchBudget
) -> CycleBound:
    net = circ.base
    weights = net.weights
    target = sum(fstar.get(e) for e in net.ids)
    if target == 0 and net.total_external() == 0:
        return CycleBound(0, True)
    meter = _Meter(budget)

    m = len(weights)
    suffix_cap = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_cap[k] = suffix_cap[k + 1] + weights[k]

    src, dst, external = circ.src, circ.dst, circ.external
    all_ids = sorted(e for e in circ.ids if e is not None)
    adjacency: list[list[tuple[int, EdgeId]]] = [[] for _ in circ.nodes]
    for v, e, u in sorted((v, e, u) for u, v, e in zip(src, dst, circ.ids) if e is not None):
        adjacency[u].append((v, e))

    best: Money | None = None
    fallback: Money | None = None
    exact = True

    def cycles_through(
        pivot: int, state: dict[EdgeId, Money], limit: int
    ) -> Iterable[list[EdgeId]]:
        """Simple cycles with flow through ``pivot``, of at most ``limit``
        edges, over nodes after it, depth-first in adjacency order; ``state``
        may change between yields if it is restored before the next one."""
        path: list[tuple[int, EdgeId]] = []  # (node, edge into it) after the pivot
        on_path = {pivot}
        arcs = [iter(adjacency[pivot])]
        while arcs:
            step = next(arcs[-1], None)
            if step is None:
                arcs.pop()
                if path:
                    on_path.discard(path.pop()[0])
                continue
            w, eid = step
            if state.get(eid, 0) <= 0:
                continue
            if w == pivot:
                yield [e for _, e in path] + [eid]
            elif w > pivot and w not in on_path and len(path) + 2 <= limit:
                path.append((w, eid))
                on_path.add(w)
                arcs.append(iter(adjacency[w]))

    def feasible(state: dict[EdgeId, Money], limit: int) -> bool:
        """Whether ``state`` splits into simple cycles of at most ``limit``
        edges: peel one unit along each cycle through the smallest node with
        flow, and try the rest, memoized on the flow vector."""
        memo: dict[tuple, bool] = {}
        frames: list[list] = []  # [key, cycle iterator, cycle peeled or None]

        def enter() -> bool | None:
            """A settled answer for ``state``, or None after pushing a frame."""
            meter.charge()
            key = tuple(state.get(i, 0) for i in all_ids)
            if not any(state.values()):
                return True
            hit = memo.get(key)
            if hit is not None:
                return hit
            pivot = next(
                v for v, arcs in enumerate(adjacency) if any(state.get(e, 0) > 0 for _, e in arcs)
            )
            frames.append([key, cycles_through(pivot, state, limit), None])
            return None

        answer = enter()
        while frames:
            frame = frames[-1]
            if frame[2] is not None:  # back from the state without that cycle
                for eid in frame[2]:
                    state[eid] += 1
                frame[2] = None
                if answer:
                    memo[frame[0]] = True
                    frames.pop()
                    continue
            cycle = next(frame[1], None)
            if cycle is None:
                memo[frame[0]] = answer = False
                frames.pop()
                continue
            for eid in cycle:
                state[eid] -= 1
            frame[2] = cycle
            answer = enter()
        return answer

    def min_max_length(vec: dict[EdgeId, Money]) -> Money:
        """The smallest feasible limit, bisected over [2, upper]: feasibility
        is monotone in the limit, and the canonical split has ``upper``."""
        nonlocal fallback
        upper = decompose_circulation(circ, FlowAssignment(dict(vec))).max_cycle_length()
        fallback = upper if fallback is None else min(fallback, upper)
        low = 2
        while low < upper:
            mid = (low + upper) // 2
            if feasible(dict(vec), mid):
                upper = mid
            else:
                low = mid + 1
        return upper

    # Depth-first over edges 0..m-1, each edge's flow from its weight down to
    # 0, pruned when the rest cannot reach the optimum or a firm pays more
    # than it holds plus all it can still receive: ``over[v]`` is v's outflow
    # so far, less its inflow so far and the weight of its in-edges not yet
    # assigned. ``assign[k]`` is None while edge k has not been tried.
    assign: list[Money | None] = [None] * m
    over = [0] * len(circ.nodes)
    for v, w in zip(dst, weights):
        over[v] -= w
    try:
        k, total, entering = 0, 0, True
        while k >= 0:
            if entering:  # a call on edges k.. with ``total`` assigned so far
                meter.charge()
                entering = False
                if total + suffix_cap[k] < target:
                    k -= 1
                    continue
                if k == m:  # an optimum; each firm's surplus goes to the source
                    surplus = [x - y for x, y in zip(external, over)]
                    d_here = min_max_length(circ.circulation(assign, surplus))
                    best = d_here if best is None else min(best, d_here)
                    k -= 1
                    continue
                over[dst[k]] += weights[k]
            u, v, w, f = src[k], dst[k], weights[k], assign[k]
            if f == 0:  # every flow on edge k is tried
                assign[k] = None
                over[v] -= w
                k -= 1
                continue
            assign[k] = w if f is None else f - 1
            step = assign[k] - (f or 0)
            over[u] += step
            over[v] -= step
            total += step
            if over[u] <= external[u] and over[v] <= external[v]:
                k += 1
                entering = True
    except _Exhausted:
        exact = False
    if best is None:
        if fallback is None:
            fallback = decompose_circulation(circ, fstar).max_cycle_length()
        return CycleBound(fallback, False)
    return CycleBound(best, exact)


# ---------------------------------------------------------------------------
# Welfare metrics


@dataclass(frozen=True)
class WelfareMetrics:
    opt_revenue: Money
    best_eq_revenue: Money | None
    worst_eq_revenue: Money | None
    poa: Fraction | UnboundedType | None
    pos: Fraction | UnboundedType | None
    spoa: Fraction | UnboundedType | None
    spos: Fraction | UnboundedType | None
    d_bound: Money
    d_exact: bool
    exhaustive: bool


def _ratio(opt: Money, eq_revenue: Money) -> Fraction | UnboundedType:
    if eq_revenue == 0:
        return UNBOUNDED if opt > 0 else Fraction(1)
    return Fraction(opt, eq_revenue)


def welfare_metrics(
    net: FinancialNetwork,
    space: SearchSpace = SearchSpace.EDGE,
    budget: SearchBudget = SearchBudget(),
    fixed: Mapping[NodeId, RankingStrategy] | StrategyProfile | None = None,
    compute_d: bool = True,
) -> WelfareMetrics:
    """Optimal revenue, equilibrium extremes, anarchy/stability ratios, and d.

    The optimum comes from the maximum-value circulation for threshold (coin)
    games and, for edge-ranking games, from the highest revenue of the
    enumeration pass, which clears every edge-ranking profile anyway.
    Equilibrium extremes come from that exhaustive enumeration with coalition
    checks. One game serves both, so every profile is cleared and charged
    once, under one meter and one deadline; the circulation network and f*
    are built once and shared with the d search, which keeps a meter of its
    own. Ratios degrade to the unbounded sentinel when the relevant
    equilibrium revenue is zero while the optimum is positive. With
    ``compute_d=False`` the d search runs on a budget of zero candidates, so
    it stops before its exponential minimization over optimal circulations
    and returns its own fallback: 0, exact, if f* carries nothing, else the
    longest cycle of f*'s canonical decomposition, flagged inexact.
    """
    game = _Game(net, budget, space, fixed)
    fstar = max_value_circulation(game.circ)
    found, best_rev, exhaustive = _enumerate(game, check_strong=True)
    if space is SearchSpace.THRESHOLD:
        opt = fstar.total() - net.total_external()
    else:
        opt = net.total_external() if best_rev is None else best_rev
    nash_revs = [sum(game.clear(code)) for code, _, _ in found]
    strong_revs = [rev for rev, (_, r, _) in zip(nash_revs, found) if r.verdict is Verdict.STRONG]
    d = _min_max_cycle_d(game.circ, fstar, budget if compute_d else SearchBudget(max_candidates=0))
    best_eq, worst_eq = (max(nash_revs), min(nash_revs)) if nash_revs else (None, None)
    return WelfareMetrics(
        opt_revenue=opt,
        best_eq_revenue=best_eq,
        worst_eq_revenue=worst_eq,
        poa=_ratio(opt, worst_eq) if worst_eq is not None else None,
        pos=_ratio(opt, best_eq) if best_eq is not None else None,
        spoa=_ratio(opt, min(strong_revs)) if strong_revs else None,
        spos=_ratio(opt, max(strong_revs)) if strong_revs else None,
        d_bound=d.value,
        d_exact=d.exact,
        exhaustive=exhaustive,
    )
