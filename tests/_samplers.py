"""Seeded random instance generators shared across test modules.

Kept out of conftest so tests can import and parametrize them explicitly;
every sampler takes the Random instance as an argument, never global state.
"""

from __future__ import annotations

import random
from fractions import Fraction

from finclear import (
    EdgeRankingStrategy,
    FinancialNetwork,
    StrategyProfile,
    ThresholdRankingStrategy,
)
from finclear.core import EdgeId, Money, NodeId, total_liabilities
from _reference import ReferenceNetwork


def with_external(net: FinancialNetwork, v: NodeId, amount: Money) -> FinancialNetwork:
    """A copy of the network with one firm's external assets replaced."""
    edges = ReferenceNetwork.of(net).edges
    return FinancialNetwork.build(net.nodes, {**net.external_assets, v: amount}, edges)


def pro_rata_payment(net: FinancialNetwork, v: NodeId, y) -> dict[EdgeId, Fraction]:
    """Exact proportional payment of v holding y: min(cap, y * cap / total
    liabilities) per out-edge; nothing if v owes nothing in all."""
    total = total_liabilities(net, v)
    return {
        e.id: min(Fraction(e.weight), Fraction(y) * e.weight / total) if total else Fraction(0)
        for e in ReferenceNetwork.of(net).out_edges(v)
    }


def random_net(
    rng: random.Random,
    max_nodes: int = 6,
    max_edges: int = 10,
    max_weight: int = 5,
    max_external: int = 4,
) -> FinancialNetwork:
    n = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(1, n + 1)]
    edges = []
    for eid in range(rng.randint(1, max_edges)):
        u, v = rng.sample(names, 2)
        edges.append((eid, u, v, rng.randint(1, max_weight)))
    externals = {
        v: rng.randint(0, max_external) for v in names if rng.random() < 0.5
    }
    return FinancialNetwork.build(names, externals, edges)


def random_profile(
    rng: random.Random, net: FinancialNetwork, threshold_p: float = 0.5
) -> StrategyProfile:
    """One random strategy per indebted firm, mixing both ranking kinds."""
    strategies = []
    ref = ReferenceNetwork.of(net)
    for v in net.nodes:
        out = ref.out_edges(v)
        if not out:
            continue
        ranking = [e.id for e in out]
        rng.shuffle(ranking)
        if rng.random() < threshold_p:
            taus = {e.id: rng.randint(0, e.weight) for e in out}
            strategies.append(ThresholdRankingStrategy.of(v, ranking, taus))
        else:
            strategies.append(EdgeRankingStrategy(v, tuple(ranking)))
    return StrategyProfile.of(strategies)
