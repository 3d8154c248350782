"""Re-measure the size sweeps of ROADMAP's baseline table with the benchmark.

    python3 perfbench/baseline.py

Each row is one in-process CLI job, timed once untraced (the job's wall
time) and once traced (the self time of the layer the row is about). Prints
a Markdown table. Takes about two minutes.
"""

from __future__ import annotations

import json
import random
import sys
import time

import worker

cli = worker._import_finclear()

import tracing  # noqa: E402  (needs finclear on the path)
import workloads  # noqa: E402


def fork_game(w: int) -> dict:
    """3 firms, 3 edges: a (holding 1) owes b and c w each, b owes a w."""
    return workloads._doc({"a": 1, "b": 0, "c": 0}, [("a", "b", w), ("a", "c", w), ("b", "a", w)])


def gen(*argv) -> str:
    return worker.run_job(cli, ["gen", *argv], None)[1]


def matching_cases():
    """The six cases of the matching-reduction acceptance test, both variants."""
    cases = [[(1, 2, 3)], [(1, 2, 3), (1, 1, 2)], [(1, 2, 3), (1, 2, 2), (2, 3, 3)],
             [(1, 1, 2)], [(1, 1, 1)], [(1, 2, 2), (2, 3, 3)]]
    for triples in cases:
        triple_args = [a for t in triples for a in ("--triple", ",".join(map(str, t)))]
        for variant, argv in (("best-response", ["best-response", "--firm", "pool"]),
                              ("decision", ["enumerate"])):
            doc = gen("3dm", "--elements", "1,2,3", "--variant", variant, *triple_args)
            yield [*argv, *workloads.SEARCH_BUDGET, "-"], doc


def rows():
    for n in (1000, 4000, 16000):
        doc = workloads.ring_plus_random(random.Random(f"baseline/{n}"), n, 1000, 100)
        yield f"`clear`, ring plus random, m=3n, n={n}", [(["clear", "-"], json.dumps(doc))], "clearing.clear"
    for n in (30, 60, 120):
        doc = workloads.ring_plus_random(random.Random(f"baseline/{n}"), n, 1000, 100, strategies=False)
        yield f"`opt-se`, ring plus random, W<=1000, n={n}", [(["opt-se", "-"], json.dumps(doc))], \
            "equilibria.max_value_circulation"
    for w in (10**4, 10**6):
        yield f"`enumerate`, 3 firms, two out-edges of weight W={w}", \
            [(["enumerate", *workloads.SEARCH_BUDGET, "-"], json.dumps(fork_game(w)))], \
            "strategies.behavior_signature"
    for d in (5, 6, 7):
        yield f"`metrics`, spoa family d={d}", \
            [(["metrics", *workloads.SEARCH_BUDGET, "-"], gen("spoa", "--d", str(d)))], "clearing.clear"
    yield "the twelve jobs of the matching-reduction test", list(matching_cases()), "clearing.clear"


def main() -> int:
    print("| row | wall s | layer | layer self s |")
    print("| --- | --- | --- | --- |")
    for label, jobs, layer in rows():
        start = time.perf_counter()
        for argv, text in jobs:
            worker.run_job(cli, argv, text)
        wall = time.perf_counter() - start
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for argv, text in jobs:
                tracer.job(worker.run_job, cli, argv, text)
        finally:
            tracer.uninstall()
        layer_s = tracer.totals()["spans"].get(layer, (0, 0.0))[1]
        print(f"| {label} | {wall:.3f} | `{layer}` | {layer_s:.3f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
