"""Equilibrium analysis: optimal strong equilibria, best responses, verdicts, welfare.

The socially optimal strong equilibrium comes from a maximum-value circulation
turned into threshold strategies. The circulation is a unit-cost min-cost
flow: start with every liability paid in full and route the overdrawn firms'
excess payments, one cost unit per edge, to firms with slack, by primal-dual
successive shortest paths (Dijkstra for the potentials, then a Dinic max-flow
on the zero-reduced-cost arcs). At most n + 1 phases run, whatever the
weights, and ties follow node ids and edge ids only.

Best responses, Nash/strong verification, and full enumeration are exact
desk-scale searches: deciding equilibrium existence and computing best
responses are NP-hard in general, so every search carries an explicit budget
and flags non-exhaustive results instead of truncating silently.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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
    UnboundedType,
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
)
from .clearing import clear_circulation


class SearchSpace(Enum):
    """Which strategies a deviation or enumeration may use."""

    EDGE = "edge"
    THRESHOLD = "threshold"


class Verdict(Enum):
    NASH = "nash"
    NOT_NASH = "not-nash"
    STRONG = "strong"
    NOT_STRONG = "not-strong"


@dataclass(frozen=True)
class SearchBudget:
    """Caps on evaluated candidates and wall-clock time for a single search."""

    max_candidates: int = 1_000_000
    timeout_secs: float = 60.0


class _Exhausted(Exception):
    """Internal control flow: the budget ran out mid-search."""


class _Meter:
    __slots__ = ("limit", "deadline", "used")

    def __init__(self, budget: SearchBudget) -> None:
        self.limit = budget.max_candidates
        self.deadline = time.monotonic() + budget.timeout_secs
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit or time.monotonic() > self.deadline:
            raise _Exhausted()


class _Game:
    """Shared search state: one circulation network, one clearing cache, one meter.

    Clearing results are memoized by profile signature; deviation profiles
    revisit enumerated profiles constantly, so the cache is what keeps
    exhaustive checks desk-scale. Only cache misses are charged.
    """

    def __init__(self, net: FinancialNetwork, budget: SearchBudget) -> None:
        self.net = net
        self.circ = build_circulation_network(net)
        self.meter = _Meter(budget)
        self.cache: dict[tuple, ClearingState] = {}

    def clear(self, profile: StrategyProfile) -> ClearingState:
        key = profile.signature()
        state = self.cache.get(key)
        if state is None:
            self.meter.charge()
            state = clear_circulation(self.circ, profile)
            self.cache[key] = state
        return state


def strategy_space(
    net: FinancialNetwork,
    v: NodeId,
    space: SearchSpace,
    dedupe: bool = True,
    meter: "_Meter | None" = None,
) -> tuple[RankingStrategy, ...]:
    """All candidate strategies for one firm, in canonical order.

    Edge space: permutations of the outgoing edge ids in lexicographic order.
    Threshold space: for each permutation, every threshold vector, ascending.
    With ``dedupe`` (the default for searches) candidates are collapsed by
    their node-aggregated payment behavior; clearing states depend on
    strategies only through that, so dropping behavioral duplicates never
    changes a verdict, and keeping first occurrences preserves canonical
    tie-breaking.
    """
    out_ids = sorted(e.id for e in net.out_edges(v))
    if not out_ids:
        return ()

    def candidates() -> Iterable[RankingStrategy]:
        if space is SearchSpace.EDGE:
            for perm in itertools.permutations(out_ids):
                yield EdgeRankingStrategy(v, perm)
        else:
            ranges = [range(net.edge(i).weight + 1) for i in out_ids]
            for perm in itertools.permutations(out_ids):
                for taus in itertools.product(*ranges):
                    yield ThresholdRankingStrategy.of(v, perm, dict(zip(out_ids, taus)))

    kept: list[RankingStrategy] = []
    seen: set = set()
    for strat in candidates():
        if meter is not None:
            meter.charge()
        if not dedupe:
            kept.append(strat)
            continue
        sig = behavior_signature(strat, net)
        if sig not in seen:
            seen.add(sig)
            kept.append(strat)
    return tuple(kept)


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
    """
    net = circ.base
    nodes = sorted(net.nodes, key=node_key)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
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

    real = sorted(net.edges, key=lambda e: e.id)
    overdraft = [-net.external(v) for v in nodes]
    for e in real:  # arc 2k reduces edge real[k]; its residual is the flow
        add_arc(index[e.src], index[e.dst], e.weight, 1)
        overdraft[index[e.src]] += e.weight
        overdraft[index[e.dst]] -= e.weight
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

    flow: dict[EdgeId, Money] = {}
    surplus = [net.external(v) for v in nodes]
    for k, e in enumerate(real):
        flow[e.id] = cap[2 * k]
        surplus[index[e.src]] -= cap[2 * k]
        surplus[index[e.dst]] += cap[2 * k]
    for e in circ.source_in:
        if surplus[index[e.src]] < 0:
            raise InconsistentStateError(f"firm {e.src!r} pays more than it holds")
        flow[e.id] = surplus[index[e.src]]
    for e in circ.source_out:
        flow[e.id] = e.weight
    return FlowAssignment({i: flow[i] for i in sorted(flow)})


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
    for v in net.nodes:
        out_ids = sorted(e.id for e in net.out_edges(v))
        if out_ids:
            strategies[v] = ThresholdRankingStrategy.of(
                v, tuple(out_ids), {e: fstar.get(e) for e in out_ids}
            )
    profile = StrategyProfile.of(strategies)
    state = clear_circulation(circ, profile)
    for e in net.edges:
        if state.flows.get(e.id) != fstar.get(e.id):
            raise InconsistentStateError(
                f"clearing flow on edge {e.id} deviates from the optimal circulation"
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


def _asset_ceiling(net: FinancialNetwork, v: NodeId) -> Money:
    return net.external(v) + sum(
        e.weight for e in net.in_edges(v) if not e.is_unbounded()
    )


class _ExactPayoffs:
    """v's inflow when it pays exactly a chosen set of its unit out-edges.

    h(P) is computed by surgery: drop v's out-edges outside P, raise v's
    external assets by |P| so it is solvent and pays P in full, and clear.
    h is monotone in P, and adding one unit edge raises it by at most 1:
    every other firm's payment response is 1-Lipschitz in its assets, so flow
    conservation bounds the extra inflow at v by the one extra unit v emits.
    """

    def __init__(self, game: _Game, v: NodeId, profile: StrategyProfile):
        self.game = game
        self.v = v
        self.others = {
            owner: s for owner, s in profile.strategies.items() if owner != v
        }
        self._cache: dict[tuple[EdgeId, ...], Money] = {}

    def inflow(self, subset: Sequence[EdgeId]) -> Money:
        key = tuple(sorted(subset))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.game.meter.charge()
        net = self.game.net
        keep = set(key)
        edges = [e for e in net.edges if e.src != self.v or e.id in keep]
        externals = {u: net.external(u) for u in net.nodes if net.external(u) > 0}
        externals[self.v] = net.external(self.v) + len(key)
        trimmed = FinancialNetwork.build(net.nodes, externals, edges)
        strategies = dict(self.others)
        if key:
            strategies[self.v] = EdgeRankingStrategy(self.v, key)
        state = clear_circulation(
            build_circulation_network(trimmed), StrategyProfile.of(strategies)
        )
        value = state.assets[self.v] - externals[self.v]
        self._cache[key] = value
        return value


def _subset_ranking(
    chosen: Sequence[EdgeId], unit_ids: Sequence[EdgeId], zero_ids: Sequence[EdgeId]
) -> tuple[EdgeId, ...]:
    rest = sorted(set(unit_ids) - set(chosen))
    return tuple(sorted(chosen)) + tuple(rest) + tuple(zero_ids)


def _best_response_unit_subsets(
    game: _Game, profile: StrategyProfile, v: NodeId
) -> tuple[EdgeRankingStrategy, Money, bool]:
    """Exact best response over edge rankings when all out-edges have weight <= 1.

    With unit edges a ranking's outcome is determined by the set P of edges it
    actually pays, and the optimum equals max over self-supporting sets
    (those with |P| <= external(v) + h(P)) of external(v) + h(P):
    the optimal ranking's paid prefix is such a set, and conversely any
    self-supporting set yields a pre-fixed point for the ranking (sorted P,
    then the rest), so the maximal clearing state attains its value. The
    search walks subsets depth-first; once a set is not self-supporting no
    superset is (the Lipschitz property), which prunes the subtree, and the
    value of a subtree is bounded by the current value plus the edges left.
    Ties break to the smallest paid set, by size then lexicographic order.
    """
    net = game.net
    ext = net.external(v)
    out_ids = sorted(e.id for e in net.out_edges(v))
    unit_ids = [e for e in out_ids if net.edge(e).weight == 1]
    zero_ids = [e for e in out_ids if net.edge(e).weight == 0]
    payoffs = _ExactPayoffs(game, v, profile)

    best_val = ext + payoffs.inflow(())
    best_set: tuple[EdgeId, ...] = ()
    exhausted = False

    class _Done(Exception):
        pass

    try:
        root_ub = min(ext + payoffs.inflow(unit_ids), _asset_ceiling(net, v))

        def grow(chosen: list[EdgeId], pool: Sequence[EdgeId]) -> None:
            nonlocal best_val, best_set
            for k, e in enumerate(pool):
                chosen.append(e)
                val = ext + payoffs.inflow(chosen)
                if len(chosen) > val:
                    chosen.pop()
                    continue  # not self-supporting; no superset can be
                if val > best_val:
                    best_val = val
                    best_set = tuple(chosen)
                    if best_val >= root_ub:
                        raise _Done()
                if val + (len(pool) - k - 1) > best_val:
                    grow(chosen, pool[k + 1 :])
                chosen.pop()

        if unit_ids and best_val < root_ub:
            grow([], unit_ids)
    except _Done:
        pass
    except _Exhausted:
        exhausted = True

    # Canonical representative: the first maximizing set by size, then lex.
    if not exhausted:
        target = best_val

        def first_hit(chosen: list[EdgeId], pool: Sequence[EdgeId], want: int):
            if len(chosen) == want:
                return list(chosen) if ext + payoffs.inflow(chosen) == target else None
            for k, e in enumerate(pool):
                if len(chosen) + 1 + len(pool) - k - 1 < want:
                    return None
                chosen.append(e)
                val = ext + payoffs.inflow(chosen)
                feasible = len(chosen) <= val and val + (want - len(chosen)) >= target
                hit = first_hit(chosen, pool[k + 1 :], want) if feasible else None
                chosen.pop()
                if hit is not None:
                    return hit
            return None

        try:
            for size in range(0, len(best_set) + 1):
                hit = first_hit([], unit_ids, size)
                if hit is not None:
                    best_set = tuple(hit)
                    break
        except _Exhausted:
            exhausted = True

    strategy = EdgeRankingStrategy(v, _subset_ranking(best_set, unit_ids, zero_ids))
    if not exhausted:
        check = game.clear(profile.replace(strategy))
        if check.assets[v] != best_val:
            raise InconsistentStateError(
                "subset search value does not match the cleared best response"
            )
    return strategy, best_val, not exhausted


def _best_response(
    game: _Game, profile: StrategyProfile, v: NodeId, space: SearchSpace
) -> BestResponse:
    net = game.net
    if not net.out_edges(v):
        raise FinclearError(f"{v!r} has no outgoing edges; nothing to optimize")
    used_before = game.meter.used
    current = profile.strategy_for(v)
    if current is not None and isinstance(current, (EdgeRankingStrategy, ThresholdRankingStrategy)):
        base = game.clear(profile)
        if base.assets[v] >= total_liabilities(net, v):
            # A solvent firm's strategy never changes the clearing state.
            return BestResponse(current, base.assets[v], True, game.meter.used - used_before)

    all_unit = all(e.weight <= 1 for e in net.out_edges(v))
    if space is SearchSpace.EDGE and all_unit:
        strategy, value, exhaustive = _best_response_unit_subsets(game, profile, v)
        return BestResponse(strategy, value, exhaustive, game.meter.used - used_before)

    best_strat: RankingStrategy | None = None
    best_val: Money = -1
    exhausted = False
    try:
        for strat in strategy_space(net, v, space, dedupe=True, meter=game.meter):
            state = game.clear(profile.replace(strat))
            if state.assets[v] > best_val:
                best_val = state.assets[v]
                best_strat = strat
    except _Exhausted:
        exhausted = True
    if best_strat is None:
        best_strat = EdgeRankingStrategy(v, tuple(sorted(e.id for e in net.out_edges(v))))
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
    game = _Game(net, budget)
    try:
        return _best_response(game, profile, v, space)
    except _Exhausted:
        out_ids = tuple(sorted(e.id for e in net.out_edges(v)))
        return BestResponse(EdgeRankingStrategy(v, out_ids), 0, False, game.meter.used)


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


def _strategic_firms(net: FinancialNetwork, base: ClearingState) -> list[NodeId]:
    """Firms whose strategy can matter: outgoing edges, insolvent in the base state."""
    firms = []
    for v in net.nodes:
        if not net.out_edges(v):
            continue
        if base.assets[v] >= total_liabilities(net, v):
            continue
        firms.append(v)
    return firms


def is_nash(
    net: FinancialNetwork,
    profile: StrategyProfile,
    space: SearchSpace = SearchSpace.EDGE,
    budget: SearchBudget = SearchBudget(),
) -> EquilibriumReport:
    """Check every firm against its exact best response.

    Solvent firms are skipped: replacing a solvent firm's strategy never
    changes the maximal clearing state. A found witness settles NOT_NASH
    conclusively; a NASH verdict is exhaustive only if every search finished
    within budget.
    """
    game = _Game(net, budget)
    try:
        base = game.clear(profile)
    except _Exhausted:
        return EquilibriumReport(Verdict.NASH, None, space, False)
    exhaustive = True
    for v in _strategic_firms(net, base):
        br = _best_response(game, profile, v, space)
        exhaustive = exhaustive and br.exhaustive
        if br.value > base.assets[v]:
            witness = DeviationWitness(
                (v,), {v: br.strategy}, {v: base.assets[v]}, {v: br.value}
            )
            return EquilibriumReport(Verdict.NOT_NASH, witness, space, True)
    return EquilibriumReport(Verdict.NASH, None, space, exhaustive)


def _coalition_members(
    net: FinancialNetwork, spaces: Mapping[NodeId, tuple[RankingStrategy, ...]]
) -> list[NodeId]:
    """Firms that can actually participate in a profitable coalition.

    Firms with a single behavior cannot change anything; firms solvent on
    external assets alone stay solvent under every profile, so their strategy
    never matters. Coalitions over the remaining firms decide the verdict:
    passive beneficiaries can be dropped from any profitable coalition.
    """
    members = []
    for v in sorted(spaces, key=node_key):
        if len(spaces[v]) < 2:
            continue
        if net.external(v) >= total_liabilities(net, v):
            continue
        members.append(v)
    return members


def _is_strong(
    game: _Game, profile: StrategyProfile, space: SearchSpace
) -> EquilibriumReport:
    net = game.net
    base = game.clear(profile)
    spaces = {
        v: strategy_space(net, v, space, dedupe=True, meter=game.meter)
        for v in net.nodes
        if net.out_edges(v)
    }
    members = _coalition_members(net, spaces)
    for size in range(1, len(members) + 1):
        for coalition in itertools.combinations(members, size):
            for combo in itertools.product(*(spaces[v] for v in coalition)):
                state = game.clear(profile.replace(*combo))
                if all(state.assets[v] > base.assets[v] for v in coalition):
                    witness = DeviationWitness(
                        coalition,
                        {s.owner: s for s in combo},
                        {v: base.assets[v] for v in coalition},
                        {v: state.assets[v] for v in coalition},
                    )
                    return EquilibriumReport(Verdict.NOT_STRONG, witness, space, True)
    return EquilibriumReport(Verdict.STRONG, None, space, True)


def is_strong_equilibrium(
    net: FinancialNetwork,
    profile: StrategyProfile,
    budget: SearchBudget = SearchBudget(),
    space: SearchSpace = SearchSpace.EDGE,
) -> EquilibriumReport:
    """Exhaustive coalition check: no group may deviate so all members strictly gain.

    Coalitions are enumerated ascending by size over the firms whose strategy
    can matter, joint deviations over the given space. For games whose
    strategies stand for monotone integer schedules, the threshold space is
    the right one: any coalition's coin-schedule deviation outcome is
    reproduced by threshold strategies, so an exhaustive threshold verdict
    certifies the full game.
    """
    game = _Game(net, budget)
    try:
        return _is_strong(game, profile, space)
    except _Exhausted:
        return EquilibriumReport(Verdict.STRONG, None, space, False)


# ---------------------------------------------------------------------------
# Enumeration and social optimum


def _fixed_map(
    fixed: Mapping[NodeId, RankingStrategy] | StrategyProfile | None,
) -> dict[NodeId, RankingStrategy]:
    if fixed is None:
        return {}
    if isinstance(fixed, StrategyProfile):
        return dict(fixed.strategies)
    return dict(fixed)


@dataclass(frozen=True)
class EquilibriumFinding:
    profile: StrategyProfile
    state: ClearingState
    report: EquilibriumReport


@dataclass(frozen=True)
class EnumerationResult:
    findings: tuple[EquilibriumFinding, ...]
    exhaustive: bool


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
    fixed = _fixed_map(fixed)
    game = _Game(net, budget)
    enum_firms = [
        v for v in net.nodes if net.out_edges(v) and v not in fixed
    ]
    findings: list[EquilibriumFinding] = []
    exhaustive = True
    try:
        spaces = {
            v: strategy_space(net, v, space, dedupe=True, meter=game.meter)
            for v in enum_firms
        }
        check_spaces = dict(spaces)
        for v in fixed:
            if net.out_edges(v):
                check_spaces[v] = strategy_space(net, v, space, dedupe=True, meter=game.meter)
        for combo in itertools.product(*(spaces[v] for v in enum_firms)):
            profile = StrategyProfile.of({**fixed, **{s.owner: s for s in combo}})
            state = game.clear(profile)
            nash = True
            for v in _strategic_firms(net, state):
                current = profile.strategy_for(v)
                for alt in check_spaces[v]:
                    if alt == current:
                        continue
                    if game.clear(profile.replace(alt)).assets[v] > state.assets[v]:
                        nash = False
                        break
                if not nash:
                    break
            if not nash:
                continue
            if check_strong:
                report = _is_strong(game, profile, space)
            else:
                report = EquilibriumReport(Verdict.NASH, None, space, True)
            findings.append(EquilibriumFinding(profile, state, report))
    except _Exhausted:
        exhaustive = False
    return EnumerationResult(tuple(findings), exhaustive)


@dataclass(frozen=True)
class SocialOptimum:
    profile: StrategyProfile
    revenue: Money
    exhaustive: bool


def social_optimum_edge_ranking(
    net: FinancialNetwork,
    budget: SearchBudget = SearchBudget(),
    fixed: Mapping[NodeId, RankingStrategy] | StrategyProfile | None = None,
) -> SocialOptimum:
    """Exhaustive revenue maximization over edge-ranking profiles."""
    fixed = _fixed_map(fixed)
    game = _Game(net, budget)
    firms = [v for v in net.nodes if net.out_edges(v) and v not in fixed]
    best_profile: StrategyProfile | None = None
    best_rev = -1
    exhaustive = True
    try:
        spaces = {
            v: strategy_space(net, v, SearchSpace.EDGE, dedupe=True, meter=game.meter)
            for v in firms
        }
        for combo in itertools.product(*(spaces[v] for v in firms)):
            profile = StrategyProfile.of({**fixed, **{s.owner: s for s in combo}})
            state = game.clear(profile)
            rev = sum(state.assets[v] for v in net.nodes)
            if rev > best_rev:
                best_rev = rev
                best_profile = profile
    except _Exhausted:
        exhaustive = False
    if best_profile is None:
        best_profile = StrategyProfile.of(fixed)
        best_rev = net.total_external()
    return SocialOptimum(best_profile, best_rev, exhaustive)


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
    found by memoized recursive peeling. Exponential by nature; the budget
    caps the search and inexact results are flagged. A zero optimal
    circulation (nothing can flow) reports 0, exact.
    """
    circ = build_circulation_network(net)
    fstar = max_value_circulation(circ)
    real = list(net.edges)
    target = sum(fstar.get(e.id) for e in real)
    total_ext = net.total_external()
    if target == 0 and total_ext == 0:
        return CycleBound(0, True)
    meter = _Meter(budget)

    m = len(real)
    suffix_cap = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_cap[k] = suffix_cap[k + 1] + real[k].weight
    in_future = [dict() for _ in range(m + 1)]  # node -> capacity still arriving
    for k in range(m - 1, -1, -1):
        d = dict(in_future[k + 1])
        e = real[k]
        d[e.dst] = d.get(e.dst, 0) + e.weight
        in_future[k] = d

    aux_in = {e.src: e.id for e in circ.source_in}
    aux_out = {e.dst: e.id for e in circ.source_out}
    all_ids = sorted(e.id for e in circ.edges)
    id_pos = {e: i for i, e in enumerate(all_ids)}
    adjacency: dict[NodeId, list[tuple[NodeId, EdgeId]]] = {
        v: [] for v in circ.nodes
    }
    for e in circ.edges:
        adjacency[e.src].append((e.dst, e.id))
    for v in adjacency:
        adjacency[v].sort(key=lambda t: (node_key(t[0]), t[1]))
    node_order = {v: i for i, v in enumerate(sorted(circ.nodes, key=node_key))}

    best: Money | None = None
    fallback: Money | None = None
    exact = True

    def min_max_length(vec: dict[EdgeId, Money]) -> Money:
        nonlocal fallback
        flows = FlowAssignment(dict(vec))
        upper = decompose_circulation(circ, flows).max_cycle_length()
        fallback = upper if fallback is None else min(fallback, upper)
        if upper <= 2:
            return upper
        order = sorted(circ.nodes, key=node_key)

        def feasible(limit: int) -> bool:
            memo: dict[tuple, bool] = {}

            def rec(state: dict[EdgeId, Money]) -> bool:
                meter.charge()
                key = tuple(state.get(i, 0) for i in all_ids)
                if not any(state.values()):
                    return True
                hit = memo.get(key)
                if hit is not None:
                    return hit
                pivot = next(
                    v
                    for v in order
                    if any(state.get(eid, 0) > 0 for _, eid in adjacency[v])
                )
                found = False
                path_nodes = [pivot]
                path_edges: list[EdgeId] = []

                def walk(u: NodeId) -> bool:
                    nonlocal found
                    for w, eid in adjacency[u]:
                        if state.get(eid, 0) <= 0:
                            continue
                        if w == pivot:
                            for pe in path_edges + [eid]:
                                state[pe] -= 1
                            ok = rec(state)
                            for pe in path_edges + [eid]:
                                state[pe] += 1
                            if ok:
                                return True
                            continue
                        if node_order[w] < node_order[pivot] or w in path_nodes:
                            continue
                        if len(path_edges) + 2 > limit:
                            continue
                        path_nodes.append(w)
                        path_edges.append(eid)
                        if walk(w):
                            path_nodes.pop()
                            path_edges.pop()
                            return True
                        path_nodes.pop()
                        path_edges.pop()
                    return False

                found = walk(pivot)
                memo[key] = found
                return found

            return rec(dict(vec))

        for limit in range(2, upper):
            if feasible(limit):
                return limit
        return upper

    def full_vector(assign: list[Money]) -> dict[EdgeId, Money]:
        vec = {e.id: f for e, f in zip(real, assign)}
        for v in net.nodes:
            inflow = sum(f for e, f in zip(real, assign) if e.dst == v)
            outflow = sum(f for e, f in zip(real, assign) if e.src == v)
            surplus = net.external(v) + inflow - outflow
            vec[aux_in[v]] = surplus
            if v in aux_out:
                vec[aux_out[v]] = net.external(v)
        return vec

    assign: list[Money] = [0] * m
    out_sof: dict[NodeId, Money] = {v: 0 for v in net.nodes}
    in_sof: dict[NodeId, Money] = {v: 0 for v in net.nodes}

    def affordable(v: NodeId, k: int) -> bool:
        return out_sof[v] <= net.external(v) + in_sof[v] + in_future[k].get(v, 0)

    def enumerate_optima(k: int, total: Money) -> None:
        nonlocal best
        meter.charge()
        if total + suffix_cap[k] < target:
            return
        if k == m:
            d_here = min_max_length(full_vector(assign))
            if best is None or d_here < best:
                best = d_here
            return
        e = real[k]
        for f in range(e.weight, -1, -1):
            assign[k] = f
            out_sof[e.src] += f
            in_sof[e.dst] += f
            if affordable(e.src, k + 1) and affordable(e.dst, k + 1):
                enumerate_optima(k + 1, total + f)
            out_sof[e.src] -= f
            in_sof[e.dst] -= f
            assign[k] = 0

    try:
        enumerate_optima(0, 0)
    except _Exhausted:
        exact = False
    if best is None:
        vec = {e: fstar.get(e) for e in all_ids}
        if fallback is None:
            fallback = decompose_circulation(
                circ, FlowAssignment(vec)
            ).max_cycle_length()
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
    games and from exhaustive profile search for edge-ranking games.
    Equilibrium extremes come from exhaustive enumeration with coalition
    checks; ratios degrade to the unbounded sentinel when the relevant
    equilibrium revenue is zero while the optimum is positive. With
    ``compute_d=False`` the exponential minimization over optimal
    circulations is skipped and ``d_bound`` is just the longest cycle of one
    canonical decomposition, flagged inexact.
    """
    exhaustive = True
    # Edge space with d reads no circulation here; min_max_cycle_d builds its own.
    if space is SearchSpace.THRESHOLD or not compute_d:
        circ = build_circulation_network(net)
        fstar = max_value_circulation(circ)
    if space is SearchSpace.THRESHOLD:
        opt = fstar.total() - net.total_external()
    else:
        social = social_optimum_edge_ranking(net, budget, fixed=fixed)
        opt = social.revenue
        exhaustive = exhaustive and social.exhaustive
    enum = enumerate_equilibria(net, space, budget, fixed=fixed, check_strong=True)
    exhaustive = exhaustive and enum.exhaustive
    nash_revs = [
        sum(f.state.assets[v] for v in net.nodes) for f in enum.findings
    ]
    strong_revs = [
        sum(f.state.assets[v] for v in net.nodes)
        for f in enum.findings
        if f.report.verdict is Verdict.STRONG
    ]
    if compute_d:
        d = min_max_cycle_d(net, budget)
    elif fstar.total() == 0:
        d = CycleBound(0, True)
    else:
        d = CycleBound(
            decompose_circulation(circ, fstar).max_cycle_length(), False
        )
    best_eq = max(nash_revs) if nash_revs else None
    worst_eq = min(nash_revs) if nash_revs else None
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
