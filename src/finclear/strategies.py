"""Payment-strategy semantics: how a firm's assets map to per-edge payments.

Two strategy kinds exist. Edge-ranking pays debts one ranked edge at a time
to saturation. Threshold-ranking makes two passes over a ranking: first up to
a per-edge threshold, then the remainders. They are the monotone integer
strategies the clearing and equilibrium machinery searches over; the
non-strategic pro-rata baseline (``clear_pro_rata``) takes none. Both kinds are
defined by one schedule: an ordered list of (edge slot, length) segments
that the firm's assets fill one unit at a time (``payment_segments`` names
the edges by id). ``check_strategy`` checks a strategy against the network's
arrays and compiles its schedule in the same pass over its ranking; the
loader calls it once per document strategy and keeps the schedules, which
``clear`` reads. An edge ranking is a threshold ranking with zero
thresholds, and threshold rankings suffice to reproduce any monotone integer
schedule's clearing outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .core import UNBOUNDED, EdgeId, FinancialNetwork, FinclearError, Money, NodeId


class StrategyError(FinclearError):
    pass


@dataclass(frozen=True)
class EdgeRankingStrategy:
    """A permutation of the owner's outgoing edges, paid sequentially to saturation."""

    owner: NodeId
    ranking: tuple[EdgeId, ...]


@dataclass(frozen=True)
class ThresholdRankingStrategy:
    """Two-pass payment: thresholds along the ranking first, remainders second.

    ``thresholds`` is stored as a sorted tuple of (edge id, amount) pairs so
    the strategy stays hashable; use ``of`` to build one from a mapping.
    """

    owner: NodeId
    ranking: tuple[EdgeId, ...]
    thresholds: tuple[tuple[EdgeId, Money], ...]

    @staticmethod
    def of(
        owner: NodeId, ranking: Iterable[EdgeId], thresholds: Mapping[EdgeId, Money]
    ) -> "ThresholdRankingStrategy":
        return ThresholdRankingStrategy(
            owner, tuple(ranking), tuple(sorted(thresholds.items()))
        )

    def threshold_map(self) -> dict[EdgeId, Money]:
        return dict(self.thresholds)


RankingStrategy = Union[EdgeRankingStrategy, ThresholdRankingStrategy]


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per firm; firms with outgoing edges must all be covered."""

    strategies: Mapping[NodeId, RankingStrategy]

    @staticmethod
    def of(
        strategies: Iterable[RankingStrategy] | Mapping[NodeId, RankingStrategy],
    ) -> "StrategyProfile":
        if isinstance(strategies, Mapping):
            return StrategyProfile(dict(strategies))
        return StrategyProfile({s.owner: s for s in strategies})

    def strategy_for(self, v: NodeId) -> RankingStrategy | None:
        return self.strategies.get(v)

    def replace(self, *new: RankingStrategy) -> "StrategyProfile":
        merged = dict(self.strategies)
        for s in new:
            merged[s.owner] = s
        return StrategyProfile(merged)


def check_strategy(strat: RankingStrategy, net: FinancialNetwork) -> list[tuple[int, Money]] | None:
    """Check the strategy against ``net`` and compile it in one pass over its
    ranking, into positive-length (slot, length) segments in ``net``'s edge
    slots: the threshold segments, then the remainders (an edge ranking has
    zero thresholds). The ranking is a permutation of the owner's out-edges,
    with thresholds on exactly those, if each ranked edge is the owner's and
    takes its own threshold, none is left over, and the ranking is as long as
    the owner's out-degree. A strategy that fails a test is checked again
    the slow way, which raises its first fault in a fixed order (owner,
    permutation, threshold cover, ranges by edge id); one that passes there
    ranks an unbounded edge or lies on a network that repeats an edge id, and
    gets None: validation rejects such networks.
    """
    degree, owner, ranking = net.out_degree(strat.owner), net.index[strat.owner], strat.ranking
    taus = dict(strat.thresholds) if isinstance(strat, ThresholdRankingStrategy) else dict.fromkeys(ranking, 0)
    segments, rests, slot, src, weights = [], [], net.slot, net.src, net.weights
    for e in ranking:
        k, tau = slot.get(e, -1), taus.pop(e, -1)  # a repeated id finds no threshold
        if k < 0 or src[k] != owner or (w := weights[k]) is UNBOUNDED or not 0 <= tau <= w:
            break
        if tau:
            segments.append((k, tau))
        if w > tau:
            rests.append((k, w - tau))
    else:
        if len(ranking) == degree and not taus:
            return segments + rests
    out_ids = net.out_ids(strat.owner)  # find the first fault, in order
    if sorted(ranking) != out_ids:
        raise StrategyError(f"ranking of {strat.owner!r} is not a permutation of its outgoing edges")
    if isinstance(strat, ThresholdRankingStrategy):
        taus = dict(strat.thresholds)
        if sorted(taus) != out_ids:
            raise StrategyError(f"thresholds of {strat.owner!r} must cover exactly its outgoing edges")
        for e_id, tau in taus.items():
            cap = net.weights[net.slot[e_id]]  # an unbounded edge sets no upper bound
            if tau < 0 or (cap is not UNBOUNDED and tau > cap):
                raise StrategyError(f"threshold {tau} on edge {e_id} outside [0, {cap}]")
    return None


def payment_segments(strat: RankingStrategy, net: FinancialNetwork) -> list[tuple[EdgeId, Money]]:
    """The strategy's payment schedule as positive-length (edge, length)
    segments: ``check_strategy``'s with each slot's edge id."""
    if (segments := check_strategy(strat, net)) is None:
        raise StrategyError(f"strategy of {strat.owner!r} has no schedule on an invalid network")
    return [(net.ids[k], x) for k, x in segments]


def payment_vector(strat: RankingStrategy, net: FinancialNetwork, y) -> dict[EdgeId, Money]:
    """Per-edge payments of the owner holding assets y: its
    ``payment_segments`` filled in order until y runs out."""
    if y < 0:
        raise StrategyError("assets must be non-negative")
    segments = payment_segments(strat, net)
    paid = {e: 0 for e in strat.ranking}
    left = y
    for e_id, length in segments:
        if left <= 0:
            break
        take = min(left, length)
        paid[e_id] += take
        left -= take
    return paid


def behavior_signature(segments: Iterable[tuple[int, Money]], net: FinancialNetwork) -> tuple:
    """A strategy's ``check_strategy`` segments as (destination, amount)
    runs, adjacent runs to one destination merged.

    These runs are the pieces of the node-aggregated payment table over asset
    levels 0..l(owner), on each of which one destination's amount rises at
    slope 1. So two strategies of one owner have equal signatures iff they
    pay every destination alike at every asset level, and then they induce
    identical clearing states in any profile. Enumeration dedupes on this.
    """
    runs: list[tuple[NodeId, Money]] = []
    for k, length in segments:
        dst = net.names[net.dst[k]]
        if runs and runs[-1][0] == dst:
            length += runs.pop()[1]
        runs.append((dst, length))
    return tuple(runs)
