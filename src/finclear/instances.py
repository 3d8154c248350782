"""Instance families and hardness gadgets, with independent validation oracles.

Every generator builds a network whose difficulty is understood in advance:
games without equilibria, families with known anarchy/stability ratios, and
reductions from MaxSAT and exact cover whose target values the brute-force
oracles below reproduce independently. Node names describe roles (gates,
sinks, chains, collectors), edge ids are assigned in documented blocks, and
all outputs pass ``validate_network``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .core import (
    FinancialNetwork,
    FinclearError,
    LiabilityEdge,
    Money,
    NodeId,
)
from .strategies import EdgeRankingStrategy, StrategyProfile

MAX_SAT_VAR_CAP = 20
EXACT_COVER_TRIPLE_CAP = 20


@dataclass(frozen=True)
class SatFormula:
    """A CNF formula: clauses are tuples of signed 1-based variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        for idx, clause in enumerate(self.clauses):
            if not clause:
                raise ValueError(f"clause {idx} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} in clause {idx} is out of range")

    @staticmethod
    def of(num_vars: int, clauses) -> "SatFormula":
        normalized = tuple(tuple(dict.fromkeys(cl)) for cl in clauses)
        return SatFormula(num_vars, normalized)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class ThreeDmInstance:
    """A 3-dimensional-matching instance: element set T and ordered triples over T."""

    elements: tuple[int, ...]
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("elements must be distinct")
        if len(self.elements) % 3 != 0:
            raise ValueError("the element count must be divisible by 3")
        pool = set(self.elements)
        for idx, triple in enumerate(self.triples):
            if len(triple) != 3:
                raise ValueError(f"triple {idx} does not have 3 components")
            for x in triple:
                if x not in pool:
                    raise ValueError(f"triple {idx} mentions unknown element {x}")

    @staticmethod
    def of(elements, triples) -> "ThreeDmInstance":
        return ThreeDmInstance(
            tuple(sorted(set(elements))), tuple(tuple(t) for t in triples)
        )

    @property
    def k(self) -> int:
        return len(self.elements) // 3


class ThreeDmVariant(Enum):
    """Which reduction to build: a best-response query or an equilibrium-existence game."""

    BEST_RESPONSE = "best-response"
    DECISION = "decision"


# The two-winged game with no pure equilibrium. Each wing feeds its gate
# through a weight-4 chain; the gates either repay the hub or divert to a
# sink whose tiny return edge makes diverting attractive exactly when the
# other gate repays. Edge ids 0..11 follow this listing order.
_CORE_EDGES: tuple[tuple[str, str, Money], ...] = (
    ("hub", "p1", 4),
    ("p1", "p2", 4),
    ("p2", "pgate", 2),
    ("pgate", "hub", 6),
    ("pgate", "psink", 6),
    ("psink", "pgate", 1),
    ("hub", "q1", 4),
    ("q1", "q2", 4),
    ("q2", "qgate", 2),
    ("qgate", "hub", 6),
    ("qgate", "qsink", 6),
    ("qsink", "qgate", 1),
)
_CORE_NODES = ("hub", "p1", "p2", "pgate", "psink", "q1", "q2", "qgate", "qsink")
_CORE_SINGLE_OUT = ("p1", "p2", "psink", "q1", "q2", "qsink")
_CORE_GATE_EXTERNAL = 2


def _core_block(
    start_id: int, suffix: str
) -> tuple[list[NodeId], dict[NodeId, Money], list[LiabilityEdge], list[EdgeRankingStrategy]]:
    """One copy of the no-equilibrium core, nodes suffixed, ids from start_id."""
    nodes = [name + suffix for name in _CORE_NODES]
    externals = {"pgate" + suffix: _CORE_GATE_EXTERNAL, "qgate" + suffix: _CORE_GATE_EXTERNAL}
    edges = [
        LiabilityEdge(start_id + offset, src + suffix, dst + suffix, weight)
        for offset, (src, dst, weight) in enumerate(_CORE_EDGES)
    ]
    out_by_node: dict[NodeId, list[int]] = {}
    for e in edges:
        out_by_node.setdefault(e.src, []).append(e.id)
    fixed = [
        EdgeRankingStrategy(name + suffix, tuple(out_by_node[name + suffix]))
        for name in _CORE_SINGLE_OUT
    ]
    return nodes, externals, edges, fixed


def gen_no_nash() -> tuple[FinancialNetwork, StrategyProfile]:
    """The 9-firm game with no pure Nash equilibrium.

    Returns the network and the forced strategies of the six single-debt
    firms; the hub and the two gates are left to the caller.
    """
    nodes, externals, edges, fixed = _core_block(0, "")
    net = FinancialNetwork.build(nodes, externals, edges)
    return net, StrategyProfile.of(fixed)


def gen_spoa_family(d: int) -> FinancialNetwork:
    """Unit-weight family whose strong price of anarchy is exactly d - 1.

    A central cycle c1 -> ... -> cd -> c1 (edge ids 0..d-1), plus one
    peripheral cycle of length d attached at each of c2..cd: the cycle leaves
    c_i, runs through d-2 fresh firms, and re-enters at c_{i-1}, so it shares
    exactly the central edge (c_{i-1}, c_i). Saturating all d-1 peripheral
    cycles is the unique optimum (revenue d(d-1)); the central-only profile is
    a strong equilibrium of revenue d.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    nodes = [f"c{i}" for i in range(1, d + 1)]
    edges = [LiabilityEdge(i - 1, f"c{i}", f"c{i + 1}", 1) for i in range(1, d)]
    edges.append(LiabilityEdge(d - 1, f"c{d}", "c1", 1))
    next_id = d
    for i in range(2, d + 1):
        chain = [f"p{i}.{j}" for j in range(1, d - 1)]
        nodes.extend(chain)
        stops = [f"c{i}", *chain, f"c{i - 1}"]
        for src, dst in zip(stops, stops[1:]):
            edges.append(LiabilityEdge(next_id, src, dst, 1))
            next_id += 1
    return FinancialNetwork.build(nodes, {}, edges)


def gen_poa_unbounded() -> FinancialNetwork:
    """Four firms, four unit edges; the worst Nash equilibrium moves no money.

    f1 and f2 owe each other (a closable 2-cycle) and each also owes a firm
    that never pays anything back. Ranking the dead-end debts first is an
    equilibrium with zero revenue; ranking the mutual debts first yields 2.
    """
    edges = [
        LiabilityEdge(0, "f1", "f3", 1),
        LiabilityEdge(1, "f2", "f4", 1),
        LiabilityEdge(2, "f1", "f2", 1),
        LiabilityEdge(3, "f2", "f1", 1),
    ]
    return FinancialNetwork.build(["f1", "f2", "f3", "f4"], {}, edges)


def gen_edge_spos_family(n: int, M: Money) -> FinancialNetwork:
    """Ring of n firms where the single strategic firm prefers a short detour.

    The ring r1 -> r2 -> ... -> rn -> r1 carries weight M on interior edges
    and M+1 on (r1, r2) and (rn, r1); a chord (r1, rn) of weight M+1 (edge id
    n) gives r1 a two-cycle worth M+1 to itself but only 2M+2 to the system,
    against nM for the full ring.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if M < 1:
        raise ValueError("M must be at least 1")
    nodes = [f"r{i}" for i in range(1, n + 1)]
    edges = [LiabilityEdge(0, "r1", "r2", M + 1)]
    for i in range(2, n):
        edges.append(LiabilityEdge(i - 1, f"r{i}", f"r{i + 1}", M))
    edges.append(LiabilityEdge(n - 1, f"r{n}", "r1", M + 1))
    edges.append(LiabilityEdge(n, "r1", f"r{n}", M + 1))
    return FinancialNetwork.build(nodes, {}, edges)


def gen_pos_unbounded(M: Money) -> FinancialNetwork:
    """The no-equilibrium core stabilized by an external money loop.

    Three extra firms m1, m2, m3 run a cycle of weight M (return leg M-2);
    m1 holds 2 in external assets and the feeders m1 and m2 each owe 3 to
    psink. Each leak exceeds m1's external assets, so no single feeder can
    revive the cycle by switching alone: while m2 pays psink first, m1's
    assets satisfy a = 2 + min(M-2, max(0, a-3)), whose only solution is
    a = 2. Every equilibrium therefore starves the cycle and earns the same
    revenue at every M, while the optimum routes both feeders into the cycle
    for 3M + O(1); the price of stability grows linearly in M. Edge ids
    12..16 extend the core's 0..11.
    """
    if M < 3:
        raise ValueError("M must be at least 3")
    nodes, externals, edges, _ = _core_block(0, "")
    nodes += ["m1", "m2", "m3"]
    externals["m1"] = 2
    edges += [
        LiabilityEdge(12, "m1", "m2", M),
        LiabilityEdge(13, "m2", "m3", M),
        LiabilityEdge(14, "m3", "m1", M - 2),
        LiabilityEdge(15, "m1", "psink", 3),
        LiabilityEdge(16, "m2", "psink", 3),
    ]
    return FinancialNetwork.build(nodes, externals, edges)


def gen_from_sat(formula: SatFormula) -> tuple[FinancialNetwork, StrategyProfile, NodeId]:
    """Unit-weight network in which pool's best-response value is n + MaxSAT.

    Per variable i there are two chains of clause-indexed firms, a starter
    firm per chain, and a collector whose single return edge to the pool caps
    each variable's contribution at one unit. Paying a starter commits the
    variable (the unit runs down one chain and back through the collector);
    paying a chain firm directly can only return through its clause firm, and
    only when the chain edge below it is already saturated, i.e. when the
    committed side satisfies that clause. Clause returns add the MaxSAT part.

    Edge ids: 0..2n-1 pool->starters, then 2n..2n+2nm-1 pool->chain firms
    (variable-major, clause-minor, false side first), then the internal wiring.
    Returns the network, the fixed strategies of every firm except pool, and
    pool's id.
    """
    n, m = formula.num_vars, formula.num_clauses
    nodes: list[NodeId] = ["pool"]
    edges: list[LiabilityEdge] = []
    next_id = 0

    def add_edge(src: NodeId, dst: NodeId) -> int:
        nonlocal next_id
        edges.append(LiabilityEdge(next_id, src, dst, 1))
        next_id += 1
        return next_id - 1

    def chain_name(i: int, j: int, b: int) -> NodeId:
        return f"ch{i}.{j}.{b}"

    for i in range(1, n + 1):
        nodes += [f"st{i}.0", f"st{i}.1"]
        nodes += [chain_name(i, j, b) for j in range(1, m + 1) for b in (0, 1)]
        nodes.append(f"col{i}")
    nodes += [f"cl{j}" for j in range(1, m + 1)]

    for i in range(1, n + 1):
        for b in (0, 1):
            add_edge("pool", f"st{i}.{b}")
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            for b in (0, 1):
                add_edge("pool", chain_name(i, j, b))

    forward: dict[NodeId, int] = {}
    fixed: list[EdgeRankingStrategy] = []
    for i in range(1, n + 1):
        for b in (0, 1):
            starter_edge = add_edge(f"st{i}.{b}", chain_name(i, 1, b))
            fixed.append(EdgeRankingStrategy(f"st{i}.{b}", (starter_edge,)))
            for j in range(1, m + 1):
                target = chain_name(i, j + 1, b) if j < m else f"col{i}"
                forward[chain_name(i, j, b)] = add_edge(chain_name(i, j, b), target)
        collector_edge = add_edge(f"col{i}", "pool")
        fixed.append(EdgeRankingStrategy(f"col{i}", (collector_edge,)))

    clause_membership: dict[NodeId, int] = {}
    for j, clause in enumerate(formula.clauses, start=1):
        for lit in sorted(clause, key=lambda l: (abs(l), l > 0)):
            side = 1 if lit > 0 else 0
            clause_membership[chain_name(abs(lit), j, side)] = add_edge(
                chain_name(abs(lit), j, side), f"cl{j}"
            )
        return_edge = add_edge(f"cl{j}", "pool")
        fixed.append(EdgeRankingStrategy(f"cl{j}", (return_edge,)))

    # Chain firms always prioritize the chain; the clause edge takes overflow.
    for name, fwd in forward.items():
        ranking = (fwd, clause_membership[name]) if name in clause_membership else (fwd,)
        fixed.append(EdgeRankingStrategy(name, ranking))

    net = FinancialNetwork.build(nodes, {}, edges)
    return net, StrategyProfile.of(fixed), "pool"


def gen_from_3dm(
    inst: ThreeDmInstance, variant: ThreeDmVariant
) -> tuple[FinancialNetwork, StrategyProfile, NodeId]:
    """Central pool paying weight-3 debts to triple firms that forward units to elements.

    Best-response variant: each element firm owes its unit straight back, so
    pool's best response is worth 3k exactly when some k chosen triples cover
    every element once. Decision variant: the element units instead feed the
    qsink of a per-element copy of the no-equilibrium core, and pool holds 3k
    external assets; a fed copy stabilizes, a starved one never does, so the
    whole game has a pure equilibrium iff an exact cover exists.

    Returns the network, the fixed strategies of everything except pool and
    the copies' strategic firms (hub and gates), and pool's id. Triple firms
    rank ascending; that loses nothing because pool pays each of them fully
    or not at all (weight 3 against external assets of 3k in steps of 3), and
    a fully paid triple firm is solvent.
    """
    nodes: list[NodeId] = ["pool"]
    externals: dict[NodeId, Money] = {}
    edges: list[LiabilityEdge] = []
    fixed: list[EdgeRankingStrategy] = []
    next_id = 0

    for idx in range(1, len(inst.triples) + 1):
        nodes.append(f"u{idx}")
        edges.append(LiabilityEdge(next_id, "pool", f"u{idx}", 3))
        next_id += 1
    nodes += [f"t{x}" for x in inst.elements]
    for idx, triple in enumerate(inst.triples, start=1):
        ranking = []
        for x in sorted(set(triple)):
            edges.append(LiabilityEdge(next_id, f"u{idx}", f"t{x}", 1))
            ranking.append(next_id)
            next_id += 1
        fixed.append(EdgeRankingStrategy(f"u{idx}", tuple(ranking)))

    if variant is ThreeDmVariant.BEST_RESPONSE:
        for x in inst.elements:
            edges.append(LiabilityEdge(next_id, f"t{x}", "pool", 1))
            fixed.append(EdgeRankingStrategy(f"t{x}", (next_id,)))
            next_id += 1
    else:
        externals["pool"] = len(inst.elements)
        for x in inst.elements:
            copy_nodes, copy_externals, copy_edges, copy_fixed = _core_block(
                next_id, f"#{x}"
            )
            nodes += copy_nodes
            externals.update(copy_externals)
            edges += copy_edges
            fixed += copy_fixed
            next_id += len(copy_edges)
            edges.append(LiabilityEdge(next_id, f"t{x}", f"qsink#{x}", 1))
            fixed.append(EdgeRankingStrategy(f"t{x}", (next_id,)))
            next_id += 1

    net = FinancialNetwork.build(nodes, externals, edges)
    return net, StrategyProfile.of(fixed), "pool"


def oracle_max_sat(formula: SatFormula) -> int:
    """Exhaustive truth-table MaxSAT; the independent check for gen_from_sat."""
    if formula.num_vars > MAX_SAT_VAR_CAP:
        raise FinclearError(
            f"oracle_max_sat handles at most {MAX_SAT_VAR_CAP} variables, got {formula.num_vars}"
        )
    best = 0
    for assignment in itertools.product((False, True), repeat=formula.num_vars):
        satisfied = sum(
            1
            for clause in formula.clauses
            if any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
        )
        best = max(best, satisfied)
    return best


def oracle_exact_cover(inst: ThreeDmInstance) -> bool:
    """Exhaustive search for k disjoint triples covering every element.

    Triples with repeated components cover fewer than three elements and can
    never appear in an exact cover, so they are dropped up front.
    """
    if len(inst.triples) > EXACT_COVER_TRIPLE_CAP:
        raise FinclearError(
            f"oracle_exact_cover handles at most {EXACT_COVER_TRIPLE_CAP} triples"
        )
    usable = sorted(
        {frozenset(t) for t in inst.triples if len(set(t)) == 3}, key=sorted
    )
    return _covers(frozenset(inst.elements), usable)


def _covers(remaining: frozenset, usable: list[frozenset]) -> bool:
    """Whether disjoint sets of ``usable`` cover ``remaining`` exactly."""
    if not remaining:
        return True
    pivot = min(remaining)
    return any(
        _covers(remaining - s, usable) for s in usable if pivot in s and s <= remaining
    )
