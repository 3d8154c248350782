"""Each command runs with the cyclic garbage collector paused, and builds no
reference cycles, so the pause holds back no garbage.

``cli.main`` pauses the collector for the whole command and restores the
caller's setting on every exit (``core.collector_paused``). With the
collector off, ``gc.collect()`` after a command finds only unreachable
cycles the command left; over a corpus of every subcommand in both spaces
it must find none, but for argparse's own help formatter on a usage error.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json

import pytest

from finclear import cli

SAT_ARGV = [
    "gen", "sat", "--vars", "4",
    "--clause=1,2,-3", "--clause=-1,3,4", "--clause=2,-4,1", "--clause=-2,-3,4",
]
GEN_ARGVS = [
    ["gen", "no-nash"],
    ["gen", "spoa", "--d", "5"],
    ["gen", "poa-unbounded"],
    ["gen", "edge-spos", "--n", "4", "--m", "50"],
    ["gen", "pos-unbounded", "--m", "10"],
    SAT_ARGV,
    ["gen", "3dm", "--elements", "3,7,8", "--variant", "decision",
     "--triple", "8,8,3", "--triple", "8,3,7"],
]

# A usage error formats the usage line with an ``argparse.HelpFormatter``,
# whose root section and the formatter refer to each other: one cycle of six
# objects (formatter, section, its item list, a bound method and two
# tuples), made by argparse, not by finclear.
USAGE_FORMATTER_CYCLE = 6


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def docs(tmp_path_factory) -> dict[str, str]:
    """Paths of the corpus documents, keyed by name."""
    root = tmp_path_factory.mktemp("collector")
    paths = {}

    def write(name: str, text: str) -> None:
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)

    for argv in GEN_ARGVS:
        code, text = _run(argv)
        assert code == 0
        write(argv[1], text)
    # Every firm with out-edges gets a strategy: the optimal strong
    # equilibrium's thresholds on spoa, and on the SAT gadget the pool's
    # out-edges in id order next to the gadget's own strategies.
    code, text = _run(["opt-se", "--emit-document", paths["spoa"]])
    assert code == 0
    write("spoa-profile", text)
    with open(paths["sat"], encoding="utf-8") as fh:
        sat = json.load(fh)
    pool = [e["id"] for e in sat["edges"] if e["src"] == "pool"]
    sat["strategies"].append({"owner": "pool", "kind": "edge-ranking", "ranking": pool})
    write("sat-profile", json.dumps(sat))
    write("broken", '{"nodes": [')
    return paths


def _corpus(docs: dict[str, str]) -> list[tuple[list[str], int]]:
    """(argv, expected exit code): every subcommand, in both spaces where
    it has one, and the exits 2, 3 and 64."""
    jobs = [(argv, 0) for argv in GEN_ARGVS]
    for name in ("spoa", "sat", "3dm", "no-nash"):
        jobs += [(["validate", docs[name]], 0), (["export-dot", docs[name]], 0)]
    jobs += [
        (["opt-se", docs["spoa"]], 0),
        (["opt-se", "--emit-document", docs["edge-spos"]], 0),
        (["clear", docs["spoa-profile"]], 0),
        (["clear", docs["sat-profile"]], 0),
        (["clear", "--oracle", "kleene-top", docs["sat-profile"]], 0),
        (["clear", "--oracle", "kleene-bottom", docs["spoa-profile"]], 0),
        (["clear", "--pro-rata", docs["spoa"]], 0),
        (["clear", "--profile", docs["spoa-profile"], docs["spoa"]], 0),
        (["enumerate", docs["3dm"]], 0),
        (["metrics", "--no-d", docs["no-nash"]], 0),
        (["best-response", "--firm", "pool", docs["sat"]], 0),
        (["check", "--nash", docs["sat-profile"]], 0),
    ]
    for space in ("edge", "threshold"):
        jobs += [
            (["best-response", "--space", space, "--firm", "c1", docs["spoa-profile"]], 0),
            (["check", "--nash", "--space", space, docs["spoa-profile"]], 0),
            (["check", "--strong", "--space", space, docs["spoa-profile"]], 0),
            (["enumerate", "--space", space, docs["spoa"]], 0),
            (["metrics", "--space", space, docs["spoa"]], 0),
            (["metrics", "--space", space, "--no-d", docs["spoa"]], 0),
        ]
    jobs += [
        (["clear", docs["broken"]], 2),
        (["clear", docs["spoa"]], 2),
        (["metrics", "--max-candidates", "5", docs["spoa"]], 3),
        (["best-response", "--firm", "pool", "--max-candidates", "5", docs["sat"]], 3),
        (["clear", "--no-such-flag", docs["spoa"]], 64),
        (["gen", "spoa"], 64),
        ([], 64),
    ]
    return jobs


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(docs, monkeypatch, enabled):
    """On exits 0, 2, 3 and 64, and when a command raises."""
    jobs = [
        (["validate", docs["spoa"]], 0),
        (["clear", docs["broken"]], 2),
        (["metrics", "--max-candidates", "5", docs["spoa"]], 3),
        (["clear", "--no-such-flag"], 64),
    ]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in jobs:
            assert _run(argv)[0] == code
            assert gc.isenabled() is enabled
        seen = []

        def fails(args):
            seen.append(gc.isenabled())
            raise RuntimeError("a command fails")

        monkeypatch.setitem(cli._COMMANDS, "validate", fails)
        with pytest.raises(RuntimeError, match="a command fails"):
            _run(["validate", docs["spoa"]])
        assert seen == [False]  # paused inside the command
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_no_command_leaves_a_reference_cycle(docs):
    """With the collector off, ``gc.collect()`` after each command counts
    the unreachable objects of the cycles it left: none, but argparse's
    formatter cycle on a usage error."""
    corpus = _corpus(docs)
    assert {argv[0] for argv, _ in corpus if argv} == set(cli._COMMANDS) | {"gen"}
    was = gc.isenabled()
    gc.disable()
    left = []
    try:
        # The first call builds the parser, and argparse leaves a help
        # formatter cycle for each argument it adds: collect those first.
        _run(["clear", "--no-such-flag"])
        gc.collect()
        for argv, code in corpus:
            assert _run(argv)[0] == code, argv
            allowed = USAGE_FORMATTER_CYCLE if code == 64 else 0
            left.append((argv, gc.collect() - allowed))
    finally:
        if was:
            gc.enable()
    assert [job for job in left if job[1]] == []
