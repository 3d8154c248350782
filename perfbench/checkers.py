"""Reference computations that check finclear's CLI output, written apart from it.

Nothing here imports finclear. The checkers work on network documents as
plain JSON dicts and on the CLI's text output, and recompute every value
another way:

* ranking payments and the asset operator, vectorised over payment segments;
  a fixed-point check of a reported state, and Kleene iteration from the top
  for the greatest (maximal) clearing state;
* the greatest pro-rata clearing vector by the fictitious default algorithm
  (Eisenberg & Noe 2001), in exact fractions;
* an exact-cover search and a truth-table MaxSAT;
* the optimal revenue of a network from ``networkx.network_simplex``;
* brute-force Nash checks over every edge ranking of every firm;
* closed forms for the named generator families.

Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from fractions import Fraction

import numpy as np

# The vectorised operator sums integers in float64 (np.bincount); every sum
# stays exact while the network's total capacity is below 2^53.
EXACT_FLOAT_LIMIT = 2**53


# ---------------------------------------------------------------------------
# Documents and CLI output


def out_edges(doc: dict) -> dict[str, list[dict]]:
    out = {node["id"]: [] for node in doc["nodes"]}
    for edge in doc["edges"]:
        out[edge["src"]].append(edge)
    return out


def with_strategies(doc: dict, strategies: dict[str, dict]) -> dict:
    """The document with ``strategies`` (owner -> entry) added or replaced."""
    merged = {s["owner"]: s for s in doc.get("strategies", [])}
    merged.update(strategies)
    return {"nodes": doc["nodes"], "edges": doc["edges"], "strategies": list(merged.values())}


def well_formed_problems(text: str) -> list[str]:
    """Problems with a document printed by ``finclear gen``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    ids = [n["id"] for n in doc["nodes"]]
    problems = []
    if len(set(ids)) != len(ids):
        problems.append("duplicate node id")
    edge_ids = [e["id"] for e in doc["edges"]]
    if len(set(edge_ids)) != len(edge_ids):
        problems.append("duplicate edge id")
    known = set(ids)
    for e in doc["edges"]:
        if e["src"] not in known or e["dst"] not in known or e["src"] == e["dst"]:
            problems.append(f"edge {e['id']} has a bad endpoint")
        if not isinstance(e["weight"], int) or e["weight"] < 0:
            problems.append(f"edge {e['id']} has a bad weight")
    return problems


def parse_key_values(text: str) -> dict[str, str]:
    """``key = value`` lines of CLI output, in order."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key.strip()] = value.strip()
    return values


_RANKING = re.compile(r"ranking=\[([0-9,]*)\]")
_THRESHOLDS = re.compile(r"thresholds=\[([0-9: ]*)\]")


def parse_strategy(owner: str, text: str) -> dict:
    """A strategy as printed by the CLI, as a document entry."""
    ranking = [int(x) for x in _RANKING.search(text).group(1).split(",") if x]
    if text.startswith("threshold"):
        pairs = _THRESHOLDS.search(text).group(1).split()
        thresholds = {k: int(v) for k, v in (p.split(":") for p in pairs)}
        return {"owner": owner, "kind": "threshold", "ranking": ranking, "thresholds": thresholds}
    return {"owner": owner, "kind": "edge-ranking", "ranking": ranking}


# ---------------------------------------------------------------------------
# Ranking payments and clearing states


class RankingGame:
    """A document with a full ranking profile, compiled into payment segments.

    A firm pays its segments in order, each up to its length; an edge ranking
    has one segment per edge, a threshold ranking first the thresholds and
    then the remainders, both in ranking order.
    """

    def __init__(self, doc: dict):
        self.nodes = [n["id"] for n in doc["nodes"]]
        index = {v: i for i, v in enumerate(self.nodes)}
        self.ext = np.array([n["external"] for n in doc["nodes"]], dtype=np.int64)
        edges = {e["id"]: e for e in doc["edges"]}
        strategies = {s["owner"]: s for s in doc.get("strategies", [])}
        owner, dst, length, start = [], [], [], []
        for v, out in out_edges(doc).items():
            if not out:
                continue
            strat = strategies[v]
            if sorted(strat["ranking"]) != sorted(e["id"] for e in out):
                raise ValueError(f"ranking of {v} is not a permutation of its edges")
            if strat["kind"] == "edge-ranking":
                segs = [(e, edges[e]["weight"]) for e in strat["ranking"]]
            else:
                tau = {int(k): t for k, t in strat["thresholds"].items()}
                segs = [(e, tau[e]) for e in strat["ranking"]]
                segs += [(e, edges[e]["weight"] - tau[e]) for e in strat["ranking"]]
            paid_before = 0
            for e, seg_len in segs:
                owner.append(index[v])
                dst.append(index[edges[e]["dst"]])
                length.append(seg_len)
                start.append(paid_before)
                paid_before += seg_len
        self.owner = np.array(owner, dtype=np.int64)
        self.dst = np.array(dst, dtype=np.int64)
        self.length = np.array(length, dtype=np.int64)
        self.start = np.array(start, dtype=np.int64)
        if int(self.length.sum()) + int(self.ext.sum()) >= EXACT_FLOAT_LIMIT:
            raise ValueError("network too heavy for the exact vectorised operator")

    def inflow(self, assets: np.ndarray) -> np.ndarray:
        """Money each firm receives when every firm holds ``assets``."""
        paid = np.clip(assets[self.owner] - self.start, 0, self.length)
        got = np.bincount(self.dst, weights=paid, minlength=len(self.nodes))
        return got.astype(np.int64)

    def step(self, assets: np.ndarray) -> np.ndarray:
        return self.ext + self.inflow(assets)

    def top(self) -> np.ndarray:
        """Externals plus all incoming capacity: above every clearing state."""
        capacity = np.bincount(self.dst, weights=self.length, minlength=len(self.nodes))
        return self.ext + capacity.astype(np.int64)

    def greatest_fixed_point(self) -> np.ndarray:
        """Kleene iteration from the top.

        The operator is monotone, so the iterates decrease to the greatest
        fixed point; each step before it lowers some integer coordinate, so
        the loop ends.
        """
        assets = self.top()
        while True:
            nxt = self.step(assets)
            if np.array_equal(nxt, assets):
                return assets
            assets = nxt

    def vector(self, assets: dict[str, int]) -> np.ndarray:
        return np.array([assets[v] for v in self.nodes], dtype=np.int64)

    def as_dict(self, assets: np.ndarray) -> dict[str, int]:
        return {v: int(a) for v, a in zip(self.nodes, assets)}


def check_clear(doc: dict, stdout: str) -> list[str]:
    """``finclear clear`` output against the fixed point and the Kleene top."""
    game = RankingGame(doc)
    values = parse_key_values(stdout)
    try:
        reported = {v: int(values[f"a_{v}"]) for v in game.nodes}
        revenue = int(values["revenue"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable clear output: {exc}"]
    problems = []
    vec = game.vector(reported)
    if not np.array_equal(game.step(vec), vec):
        problems.append("reported assets are not a fixed point of the payment map")
    greatest = game.greatest_fixed_point()
    if not np.array_equal(vec, greatest):
        wrong = sum(1 for a, b in zip(vec, greatest) if a != b)
        problems.append(f"{wrong} firms differ from the greatest fixed point")
    if revenue != int(vec.sum()):
        problems.append("revenue is not the sum of assets")
    return problems


# ---------------------------------------------------------------------------
# Pro-rata clearing


def pro_rata_greatest(doc: dict) -> dict[str, Fraction]:
    """Greatest pro-rata clearing assets by the fictitious default algorithm.

    Start with every firm paying in full; each round solves, exactly, the
    payments of the current defaulters (who pay all they hold) with everyone
    else paying in full, then adds the firms that can no longer pay. The
    default set only grows, so there are at most n rounds.
    """
    nodes = [n["id"] for n in doc["nodes"]]
    ext = {n["id"]: Fraction(n["external"]) for n in doc["nodes"]}
    owed = {v: Fraction(0) for v in nodes}
    for e in doc["edges"]:
        owed[e["src"]] += e["weight"]
    share = {}  # (debtor, creditor) -> fraction of the debtor's payments
    for e in doc["edges"]:
        key = (e["src"], e["dst"])
        share[key] = share.get(key, 0) + Fraction(e["weight"]) / owed[e["src"]]

    def assets(pay):
        got = dict(ext)
        for (u, w), frac in share.items():
            got[w] += frac * pay[u]
        return got

    pay = dict(owed)
    default: set[str] = set()
    while True:
        held = assets(pay)
        newly = {v for v in nodes if held[v] < owed[v]} - default
        if not newly:
            return held
        default |= newly
        pay = _solve_defaulters(nodes, ext, owed, share, sorted(default))


def _solve_defaulters(nodes, ext, owed, share, default):
    """Payments when ``default`` pay what they hold and the rest pay in full."""
    pos = {v: i for i, v in enumerate(default)}
    k = len(default)
    rows = [[Fraction(0)] * (k + 1) for _ in range(k)]
    for v in default:
        rows[pos[v]][pos[v]] += 1
        rows[pos[v]][k] += ext[v]
    for (u, w), frac in share.items():
        if w not in pos:
            continue
        if u in pos:
            rows[pos[w]][pos[u]] -= frac
        else:
            rows[pos[w]][k] += frac * owed[u]
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular default system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    pay = {v: owed[v] for v in nodes}
    for v in default:
        pay[v] = rows[pos[v]][k]
    return pay


def check_pro_rata(expected: dict[str, Fraction], stdout: str) -> list[str]:
    values = parse_key_values(stdout)
    try:
        got = {v: Fraction(values[f"a_{v}"]) for v in expected}
        revenue = Fraction(values["revenue"])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable pro-rata output: {exc}"]
    problems = [f"a_{v} = {got[v]}, expected {expected[v]}" for v in expected if got[v] != expected[v]]
    if revenue != sum(expected.values()):
        problems.append("wrong revenue")
    if values.get("converged") != "true":
        problems.append("not converged")
    return problems


# ---------------------------------------------------------------------------
# Optimal strong equilibrium


def optimal_revenue(doc: dict) -> int:
    """Maximum revenue of any clearing state, from a min-cost circulation.

    Every unit on any edge of the circulation network (the firms plus a
    source paying out externals and taking back surplus) earns 1; the
    revenue is the circulation's value minus the externals.
    """
    import networkx as nx

    graph = nx.MultiDiGraph()
    source = ("source",)
    graph.add_node(source, demand=0)
    incoming = {n["id"]: 0 for n in doc["nodes"]}
    for e in doc["edges"]:
        incoming[e["dst"]] += e["weight"]
    for n in doc["nodes"]:
        v = n["id"]
        graph.add_node(v, demand=0)
        if n["external"] > 0:
            graph.add_edge(source, v, capacity=n["external"], weight=-1)
        graph.add_edge(v, source, capacity=n["external"] + incoming[v], weight=-1)
    for e in doc["edges"]:
        graph.add_edge(e["src"], e["dst"], capacity=e["weight"], weight=-1)
    cost, _ = nx.network_simplex(graph)
    return -cost - sum(n["external"] for n in doc["nodes"])


def check_opt_se(doc: dict, stdout: str) -> list[str]:
    """``finclear opt-se``: the printed thresholds must clear at the optimum.

    With a := externals + inflow at the thresholds, a must be a fixed point
    of the printed profile and sum to the optimal revenue. The maximal
    clearing state lies above a and no clearing state beats the optimum, so
    a is the maximal state and the printed revenue is optimal.
    """
    values = parse_key_values(stdout)
    strategies = {}
    for key, text in values.items():
        if key.startswith("strategy "):
            owner = key[len("strategy "):]
            strategies[owner] = parse_strategy(owner, text)
    try:
        revenue = int(values["revenue"])
    except (KeyError, ValueError):
        return ["unreadable opt-se output"]
    missing = [v for v, out in out_edges(doc).items() if out and v not in strategies]
    if missing:
        return [f"no strategy printed for {missing[0]}"]
    problems = []
    if any(s["kind"] != "threshold" for s in strategies.values()):
        problems.append("an optimal strong equilibrium strategy is not a threshold ranking")
        return problems
    full = with_strategies({**doc, "strategies": []}, strategies)
    game = RankingGame(full)
    dst = {e["id"]: e["dst"] for e in doc["edges"]}
    at = {n["id"]: n["external"] for n in doc["nodes"]}
    for s in strategies.values():
        for e, tau in s["thresholds"].items():
            at[dst[int(e)]] += tau
    vec = game.vector(at)
    if not np.array_equal(game.step(vec), vec):
        problems.append("the threshold flows are not a clearing state of the printed profile")
    if int(vec.sum()) != revenue:
        problems.append("printed revenue differs from the threshold clearing state")
    best = optimal_revenue(doc)
    if revenue != best:
        problems.append(f"revenue {revenue}, optimum is {best}")
    return problems


# ---------------------------------------------------------------------------
# Search gadgets


def exact_cover(elements, triples) -> bool:
    """Whether some disjoint triples cover every element exactly once."""
    sets = [frozenset(t) for t in triples if len(set(t)) == 3]
    target = frozenset(elements)

    def search(left: frozenset, usable: list[frozenset]) -> bool:
        if not left:
            return True
        x = min(left)
        return any(search(left - s, usable) for s in usable if x in s and s <= left)

    return search(target, sets)


def max_sat(num_vars: int, clauses) -> int:
    """Most clauses any truth assignment satisfies, by the full truth table."""
    best = 0
    for bits in range(2**num_vars):
        sat = sum(
            1 for clause in clauses
            if any(((bits >> (abs(lit) - 1)) & 1) == (lit > 0) for lit in clause)
        )
        best = max(best, sat)
    return best


def edge_ranking_deviations(doc: dict, profile_doc: dict):
    """(firm, alternative entry) for every other edge ranking of every firm."""
    current = {s["owner"]: s for s in profile_doc["strategies"]}
    for v, out in out_edges(doc).items():
        if len(out) < 2:
            continue
        for perm in itertools.permutations(sorted(e["id"] for e in out)):
            if list(perm) != current[v]["ranking"] or current[v]["kind"] != "edge-ranking":
                yield v, {"owner": v, "kind": "edge-ranking", "ranking": list(perm)}


def nash_problems(doc: dict, profile_doc: dict) -> list[str]:
    """Unilateral edge-ranking deviations that strictly pay off."""
    base = RankingGame(profile_doc)
    held = base.as_dict(base.greatest_fixed_point())
    problems = []
    for v, alt in edge_ranking_deviations(doc, profile_doc):
        game = RankingGame(with_strategies(profile_doc, {v: alt}))
        if game.as_dict(game.greatest_fixed_point())[v] > held[v]:
            problems.append(f"{v} gains by ranking {alt['ranking']}")
            break
    return problems


def parse_enumeration(stdout: str) -> list[tuple[int, dict[str, dict]]]:
    """(revenue, strategies) of every equilibrium listed by ``enumerate``."""
    found = []
    for line in stdout.splitlines():
        if line.startswith("equilibrium "):
            found.append((int(line.rsplit("= ", 1)[1]), {}))
        elif line.startswith("  ") and found:
            owner, text = line.strip().split(": ", 1)
            found[-1][1][owner] = parse_strategy(owner, text)
    return found


def check_enumerate_3dm(doc: dict, stdout: str, has_cover: bool) -> list[str]:
    """Equilibria exist iff an exact cover does, and each listed one is Nash."""
    found = parse_enumeration(stdout)
    problems = []
    if bool(found) != has_cover:
        problems.append(f"{len(found)} equilibria listed, exact cover {'exists' if has_cover else 'does not exist'}")
    seen = set()
    for revenue, strategies in found:
        key = json.dumps(strategies, sort_keys=True)
        if key in seen:
            problems.append("an equilibrium is listed twice")
        seen.add(key)
        profile_doc = with_strategies(doc, strategies)
        game = RankingGame(profile_doc)
        if int(game.greatest_fixed_point().sum()) != revenue:
            problems.append("listed revenue differs from the maximal clearing state")
        problems += nash_problems(doc, profile_doc)
    return problems


def check_best_response_sat(doc: dict, stdout: str, num_vars: int, clauses) -> list[str]:
    """pool's best response is worth n + MaxSAT, and the printed ranking earns it."""
    values = parse_key_values(stdout)
    problems = []
    want = num_vars + max_sat(num_vars, clauses)
    if values.get("value") != str(want):
        problems.append(f"value {values.get('value')}, expected {want}")
    if values.get("exhaustive") != "true":
        problems.append("search not exhaustive")
    strategy = parse_strategy("pool", values.get("strategy", ""))
    game = RankingGame(with_strategies(doc, {"pool": strategy}))
    if game.as_dict(game.greatest_fixed_point())["pool"] != want:
        problems.append("the printed ranking does not earn the printed value")
    return problems


def check_best_response(profile_doc: dict, firm: str, stdout: str) -> list[str]:
    """The printed value is the best of every edge ranking of ``firm``, by brute force."""
    best = 0
    for perm in itertools.permutations(sorted(e["id"] for e in out_edges(profile_doc)[firm])):
        alt = {"owner": firm, "kind": "edge-ranking", "ranking": list(perm)}
        game = RankingGame(with_strategies(profile_doc, {firm: alt}))
        best = max(best, game.as_dict(game.greatest_fixed_point())[firm])
    return check_values(stdout, {"value": str(best), "exhaustive": "true"})


_DOT_STATEMENT = re.compile(r'^  "([^"]*)"(?: -> "([^"]*)")? \[(.*)\];$')
_DOT_LABEL = re.compile(r'label="([^"]*)"')


def check_dot(doc: dict, stdout: str) -> list[str]:
    """Every firm is drawn, every edge with its weight, every external as a box."""
    firms, edges, boxes, feeds = set(), Counter(), {}, set()
    for line in stdout.splitlines():
        match = _DOT_STATEMENT.match(line)
        if not match:
            continue
        src, dst, attrs = match.groups()
        label = _DOT_LABEL.search(attrs)
        if dst is None and "shape=ellipse" in attrs:
            firms.add(src)
        elif dst is None and "shape=box" in attrs:
            boxes[src] = label.group(1) if label else None
        elif "style=dashed" in attrs:
            feeds.add((src, dst))
        elif dst is not None:
            edges[(src, dst, label.group(1) if label else None)] += 1
    problems = []
    if firms != {n["id"] for n in doc["nodes"]}:
        problems.append("the drawn firms differ from the document")
    if edges != Counter((e["src"], e["dst"], str(e["weight"])) for e in doc["edges"]):
        problems.append("the drawn edges or weights differ from the document")
    for n in doc["nodes"]:
        box = f"external:{n['id']}"
        if n["external"] and (boxes.get(box) != str(n["external"]) or (box, n["id"]) not in feeds):
            problems.append(f"external assets of {n['id']} are not drawn")
            break
    return problems


def check_values(stdout: str, expected: dict[str, str]) -> list[str]:
    """``key = value`` lines that must read exactly as given."""
    values = parse_key_values(stdout)
    return [
        f"{key} = {values.get(key)}, expected {want}"
        for key, want in expected.items()
        if values.get(key) != want
    ]


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# Closed forms. Derivations are in perfbench/README.md.


def spoa_family_metrics(d: int) -> dict[str, str]:
    """``metrics`` on ``gen spoa --d d``: opt d(d-1), spoa d-1, d exact."""
    return {"opt": str(d * (d - 1)), "spoa": fraction_text(Fraction(d - 1)),
            "d": str(d), "d_exact": "true"}


def pos_unbounded_metrics(m: int) -> dict[str, str]:
    """``metrics --no-d`` on ``gen pos-unbounded --m M``: opt 3M+32, equilibria 32 and 38."""
    opt = 3 * m + 32
    return {"opt": str(opt), "best_eq": "38", "worst_eq": "32",
            "poa": fraction_text(Fraction(opt, 32)), "pos": fraction_text(Fraction(opt, 38))}


def edge_spos_metrics(n: int, m: int) -> dict[str, str]:
    """``metrics --no-d`` on ``gen edge-spos --n n --m M``.

    The ring earns nM; r1 alone prefers the chord's 2-cycle (M+1 against M),
    so the only equilibrium earns 2M+2, and the unique optimal circulation
    decomposes into the ring and one 2-cycle.
    """
    ratio = fraction_text(Fraction(n * m, 2 * m + 2))
    return {"opt": str(n * m), "best_eq": str(2 * m + 2), "worst_eq": str(2 * m + 2),
            "poa": ratio, "pos": ratio, "spoa": ratio, "spos": ratio,
            "d": str(n), "d_exact": "false"}


POA_UNBOUNDED_METRICS = {
    "opt": "2", "best_eq": "2", "worst_eq": "0", "poa": "unbounded", "pos": "1/1",
    "spoa": "1/1", "spos": "1/1", "d": "2", "d_exact": "true",
}
