"""The benchmark's workloads: fixed job lists over documents made from a seed.

A job is one ``finclear`` command line. Its input is a document file, a
document given on stdin, or the stdout of an earlier job of the same pass
(a pipeline such as ``finclear gen spoa --d 7 | finclear metrics``). Every
job carries a check that recomputes its output with ``checkers``; the check
receives that module as its first argument, so that loading it (numpy,
networkx) happens after the timed passes, not during set-up.

Inputs come from ``random.Random`` seeded with strings naming the workload,
the seed and the input, so the same seed gives the same documents whatever
the interpreter's hash seed. Sizes are fixed; the seed changes weights,
wiring, labels and strategies, which keeps the work per pass close across
seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

# Search jobs get a cap no job reaches and a timeout far above any job's
# time, so neither decides a result.
SEARCH_BUDGET = ["--max-candidates", "100000000", "--timeout-secs", "600"]


@dataclass
class Job:
    """One CLI command. ``stdin`` is a document text, or the index of an
    earlier job in the pass whose stdout is piped in, or None."""

    label: str
    argv: list[str]
    check: Callable[[ModuleType, str, str | None], list[str]]
    stdin: str | int | None = None


class _Builder:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.jobs: list[Job] = []

    def add(self, label, argv, check, stdin=None) -> int:
        self.jobs.append(Job(label, list(argv), check, stdin))
        return len(self.jobs) - 1

    def file(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return str(path)

    def pipe(self, label, gen_argv, argv, check) -> int:
        """``finclear gen ... | finclear <argv>``; ``check`` also gets the
        generated document."""
        src = self.add(f"gen {label}", ["gen", *gen_argv], _check_generated)
        return self.add(label, [*argv, "-"], check, stdin=src)


def _check_generated(ck, out: str, given) -> list[str]:
    return ck.well_formed_problems(out)


# ---------------------------------------------------------------------------
# Documents


def ring_plus_random(rng, n, max_weight, max_external, strategies=True) -> dict:
    """A ring f0 -> f1 -> ... -> f0 plus 2n random edges (m = 3n).

    Every firm holds external assets in [1, max_external]; weights are in
    [1, max_weight]. With ``strategies``, even-numbered firms use a shuffled
    edge ranking and odd-numbered firms a shuffled threshold ranking with
    random thresholds.
    """
    nodes = [f"f{i}" for i in range(n)]
    edges = [(i, nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    for eid in range(n, 3 * n):
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        edges.append((eid, nodes[a], nodes[b + (b >= a)]))
    doc = {
        "nodes": [{"id": v, "external": rng.randint(1, max_external)} for v in nodes],
        "edges": [
            {"id": eid, "src": s, "dst": d, "weight": rng.randint(1, max_weight)}
            for eid, s, d in edges
        ],
        "strategies": [],
    }
    if strategies:
        out = {v: [] for v in nodes}
        for e in doc["edges"]:
            out[e["src"]].append(e)
        for i, v in enumerate(nodes):
            ranking = [e["id"] for e in out[v]]
            rng.shuffle(ranking)
            if i % 2 == 0:
                doc["strategies"].append({"owner": v, "kind": "edge-ranking", "ranking": ranking})
            else:
                thresholds = {str(e["id"]): rng.randint(0, e["weight"]) for e in out[v]}
                doc["strategies"].append(
                    {"owner": v, "kind": "threshold", "ranking": ranking, "thresholds": thresholds}
                )
    return doc


def _doc(nodes: dict[str, int], edges: list[tuple[str, str, int]], strategies=()) -> dict:
    return {
        "nodes": [{"id": v, "external": x} for v, x in nodes.items()],
        "edges": [{"id": i, "src": s, "dst": d, "weight": w} for i, (s, d, w) in enumerate(edges)],
        "strategies": list(strategies),
    }


# u and v owe each other 10 and v leaks 10 to s; u holds 1. The greatest
# pro-rata clearing state is (2, 2, 1): a_u = 1 + a_v / 2 and a_v = a_u.
LEAKY_CYCLE = _doc({"u": 1, "v": 0, "s": 0}, [("u", "v", 10), ("v", "u", 10), ("v", "s", 10)])
LEAKY_CYCLE_ASSETS = {"u": 2, "v": 2, "s": 1}

# x pays 5 of 10 owed, split 2 to y and 3 to z; y passes its 2 on to z.
# Pro-rata clears in three rounds at (5, 2, 5).
PRO_RATA_DAG = _doc({"x": 5, "y": 0, "z": 0}, [("x", "y", 4), ("x", "z", 6), ("y", "z", 3)])
PRO_RATA_DAG_ASSETS = {"x": 5, "y": 2, "z": 5}

# The network of ``gen poa-unbounded`` (edge ids as it prints them) with f2
# ranking the mutual debt first, so f1's best response earns 1.
POA_WITH_F2 = _doc(
    {"f1": 0, "f2": 0, "f3": 0, "f4": 0},
    [("f1", "f3", 1), ("f2", "f4", 1), ("f1", "f2", 1), ("f2", "f1", 1)],
    [{"owner": "f2", "kind": "edge-ranking", "ranking": [3, 1]}],
)

# Cases of the matching-reduction acceptance test: two with an exact cover,
# three without. Its three-triple cover case (about 7 s) is left out, so
# that no single job outweighs the rest of the pass.
THREE_DM_CASES = (
    [(1, 2, 3)],
    [(1, 2, 3), (1, 1, 2)],
    [(1, 1, 2)],
    [(1, 1, 1)],
    [(1, 2, 2), (2, 3, 3)],
)


def _probes(b: _Builder) -> None:
    """Five small jobs that reach every layer, so that every per-layer metric
    is measured on every workload; together they take about 10 ms."""
    metrics = b.pipe(
        "metrics poa-unbounded", ["poa-unbounded"], ["metrics", *SEARCH_BUDGET],
        lambda ck, out, given: ck.check_values(out, ck.POA_UNBOUNDED_METRICS),
    )
    b.add(
        "opt-se poa-unbounded", ["opt-se", "-"],
        lambda ck, out, given: ck.check_opt_se(json.loads(given), out),
        stdin=b.jobs[metrics].stdin,
    )
    b.add(
        "best-response poa-unbounded", ["best-response", "--firm", "f1", *SEARCH_BUDGET, "-"],
        lambda ck, out, given: ck.check_best_response(POA_WITH_F2, "f1", out),
        stdin=json.dumps(POA_WITH_F2),
    )
    b.add(
        "clear --pro-rata dag", ["clear", "--pro-rata", "-"],
        lambda ck, out, given: ck.check_pro_rata(ck.pro_rata_greatest(PRO_RATA_DAG), out),
        stdin=json.dumps(PRO_RATA_DAG),
    )


# ---------------------------------------------------------------------------
# Workloads


def clear_large(b: _Builder, seed: int) -> None:
    """One clear each on three large documents, a DOT export of the largest,
    and the two pro-rata jobs that fail until pro-rata clearing is exact."""
    largest = None
    for n in (2000, 4000, 8000):
        doc = ring_plus_random(random.Random(f"clear-large/{seed}/{n}"), n, 1000, 100)
        path = b.file(f"ring-{n}.json", doc)
        b.add(f"clear n={n}", ["clear", path], lambda ck, out, given, doc=doc: ck.check_clear(doc, out))
        largest = (doc, path)
    doc, path = largest
    b.add("export-dot n=8000", ["export-dot", path], lambda ck, out, given: ck.check_dot(doc, out))
    b.add(
        "clear --pro-rata leaky 3-cycle", ["clear", "--pro-rata", b.file("leaky.json", LEAKY_CYCLE)],
        lambda ck, out, given: ck.check_pro_rata(LEAKY_CYCLE_ASSETS, out),
    )
    # A fixed ring, independent of the seed, so that the job fails on every run.
    ring = ring_plus_random(random.Random("pro-rata ring"), 8, 50, 5, strategies=False)
    b.add(
        "clear --pro-rata ring n=8", ["clear", "--pro-rata", b.file("pro-rata-ring.json", ring)],
        lambda ck, out, given: ck.check_pro_rata(ck.pro_rata_greatest(ring), out),
    )


def search_gadgets(b: _Builder, seed: int) -> None:
    """Thousands of clears on small gadget networks."""
    rng = random.Random(f"search-gadgets/{seed}")
    for triples in THREE_DM_CASES:
        labels = dict(zip((1, 2, 3), rng.sample(range(1, 10), 3)))
        mapped = [tuple(labels[x] for x in t) for t in triples]
        rng.shuffle(mapped)
        elements = sorted(labels.values())
        gen = ["3dm", "--elements", ",".join(map(str, elements)), "--variant", "decision"]
        for t in mapped:
            gen += ["--triple", ",".join(map(str, t))]
        b.pipe(
            f"enumerate 3dm {mapped}", gen, ["enumerate", *SEARCH_BUDGET],
            lambda ck, out, given, el=elements, t=mapped: ck.check_enumerate_3dm(
                json.loads(given), out, ck.exact_cover(el, t)),
        )
    for _ in range(16):
        clauses = [[v * rng.choice((-1, 1)) for v in rng.sample(range(1, 5), 3)] for _ in range(3)]
        gen = ["sat", "--vars", "4"] + ["--clause=" + ",".join(map(str, c)) for c in clauses]
        b.pipe(
            f"best-response sat {clauses}", gen, ["best-response", "--firm", "pool", *SEARCH_BUDGET],
            lambda ck, out, given, clauses=clauses: ck.check_best_response_sat(json.loads(given), out, 4, clauses),
        )
    b.pipe(
        "enumerate no-nash", ["no-nash"], ["enumerate", *SEARCH_BUDGET],
        lambda ck, out, given: [] if out.splitlines() == ["0 equilibria"] else ["no-nash lists an equilibrium"],
    )
    b.pipe(
        "metrics spoa d=7", ["spoa", "--d", "7"], ["metrics", *SEARCH_BUDGET],
        lambda ck, out, given: ck.check_values(out, ck.spoa_family_metrics(7)),
    )
    b.pipe(
        "metrics --no-d pos-unbounded m=100", ["pos-unbounded", "--m", "100"],
        ["metrics", "--no-d", *SEARCH_BUDGET],
        lambda ck, out, given: ck.check_values(out, ck.pos_unbounded_metrics(100)),
    )


def welfare(b: _Builder, seed: int) -> None:
    """Max-value circulations on mid-size networks and payment tables on
    heavy small games."""
    for n in (50, 60):
        doc = ring_plus_random(random.Random(f"welfare/{seed}/{n}"), n, 10**6, 10**4, strategies=False)
        path = b.file(f"welfare-{n}.json", doc)
        b.add(f"opt-se n={n}", ["opt-se", path], lambda ck, out, given, doc=doc: ck.check_opt_se(doc, out))
    rng = random.Random(f"welfare/{seed}/edge-spos")
    n, m = rng.randint(4, 6), 20000 + rng.randrange(1000)
    b.pipe(
        f"metrics --no-d edge-spos n={n} m={m}", ["edge-spos", "--n", str(n), "--m", str(m)],
        ["metrics", "--no-d", *SEARCH_BUDGET],
        lambda ck, out, given: ck.check_values(out, ck.edge_spos_metrics(n, m)),
    )


WORKLOADS = {"clear-large": clear_large, "search-gadgets": search_gadgets, "welfare": welfare}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    b = _Builder(workdir)
    WORKLOADS[workload](b, seed)
    _probes(b)
    return b.jobs
