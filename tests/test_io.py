"""Document format, canonical serialization, DOT export, and the CLI."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from finclear.cli import _fmt

from finclear import (
    UNBOUNDED,
    EdgeRankingStrategy,
    FinancialNetwork,
    ParseError,
    StrategyProfile,
    ThresholdRankingStrategy,
    load_document,
    parse_document,
    render_document,
    render_dot,
    save_document,
    validate_network,
)


def sample_document() -> str:
    net = FinancialNetwork.build(
        ["a", "b", "c"],
        {"a": 2, "c": 1},
        [(0, "a", "b", 3), (1, "b", "c", 2), (2, "c", "a", 1)],
    )
    profile = StrategyProfile.of(
        [
            EdgeRankingStrategy("a", (0,)),
            ThresholdRankingStrategy.of("b", (1,), {1: 1}),
            EdgeRankingStrategy("c", (2,)),
        ]
    )
    return render_document(net, profile)


class TestParse:
    def test_round_trip_is_byte_stable(self):
        text = sample_document()
        doc = parse_document(text)
        assert render_document(doc.network, doc.profile) == text

    def test_save_load_round_trip(self, tmp_path):
        text = sample_document()
        doc = parse_document(text)
        path = tmp_path / "net.json"
        save_document(path, doc.network, doc.profile)
        again = load_document(path)
        assert render_document(again.network, again.profile) == text

    def test_json_errors_carry_position(self):
        with pytest.raises(ParseError, match=r"line 1, column 9"):
            parse_document('{"nodes"')

    def test_unknown_top_level_field(self):
        with pytest.raises(ParseError, match="unknown field 'extra'"):
            parse_document('{"nodes": [], "edges": [], "extra": 1}')

    def test_unknown_node_field(self):
        with pytest.raises(ParseError, match="nodes\\[0\\]"):
            parse_document('{"nodes": [{"id": "a", "ext": 1}], "edges": []}')

    def test_duplicate_node_id(self):
        text = json.dumps(
            {"nodes": [{"id": "a", "external": 0}, {"id": "a", "external": 1}], "edges": []}
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_document(text)

    def test_weight_must_be_an_integer_or_unbounded(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}, {"id": "b", "external": 0}],
                "edges": [{"id": 0, "src": "a", "dst": "b", "weight": "3"}],
            }
        )
        with pytest.raises(ParseError, match="weight"):
            parse_document(text)

    def test_boolean_is_not_money(self):
        text = json.dumps({"nodes": [{"id": "a", "external": True}], "edges": []})
        with pytest.raises(ParseError):
            parse_document(text)

    def test_unbounded_literal_parses_then_fails_validation(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}, {"id": "b", "external": 0}],
                "edges": [{"id": 0, "src": "a", "dst": "b", "weight": "unbounded"}],
            }
        )
        doc = parse_document(text)
        assert doc.network.edge(0).weight is UNBOUNDED
        report = validate_network(doc.network)
        assert "unbounded-weight" in {v.code for v in report.violations}

    def test_total_weight_cap(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}, {"id": "b", "external": 0}],
                "edges": [{"id": 0, "src": "a", "dst": "b", "weight": 2**62 + 1}],
            }
        )
        with pytest.raises(ParseError, match="exceeds"):
            parse_document(text)

    def test_unknown_strategy_kind(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}],
                "edges": [],
                "strategies": [{"owner": "a", "kind": "pro-rata", "ranking": []}],
            }
        )
        with pytest.raises(ParseError, match="kind"):
            parse_document(text)

    def test_strategy_must_fit_the_network(self):
        text = json.dumps(
            {
                "nodes": [{"id": "a", "external": 0}, {"id": "b", "external": 0}],
                "edges": [{"id": 0, "src": "a", "dst": "b", "weight": 1}],
                "strategies": [{"owner": "a", "kind": "edge-ranking", "ranking": [0, 1]}],
            }
        )
        with pytest.raises(ParseError, match="permutation"):
            parse_document(text)


class TestFixtures:
    def test_two_cycle_fixture(self, fixtures_dir):
        doc = load_document(fixtures_dir / "two_cycle.json")
        assert validate_network(doc.network).ok
        assert doc.network.external("u") == 1

    def test_gadget_fixture_carries_its_forced_strategies(self, fixtures_dir):
        doc = load_document(fixtures_dir / "no_nash.json")
        assert validate_network(doc.network).ok
        assert len(doc.profile.strategies) == 6


class TestDot:
    def test_externals_become_boxes(self):
        net = FinancialNetwork.build(["a", "b"], {"a": 2}, [(0, "a", "b", 3)])
        dot = render_dot(net)
        assert 'label="3"' in dot
        assert '"external:a" [shape=box, label="2"]' in dot
        assert "external:b" not in dot


# ---------------------------------------------------------------------------
# Command-line interface, end to end


def run_cli(*args: str, stdin: str = "", env: dict | None = None):
    return subprocess.run(
        [sys.executable, "-m", "finclear.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestCli:
    def test_generated_gadget_has_no_equilibria(self):
        gen = run_cli("gen", "no-nash")
        assert gen.returncode == 0
        result = run_cli("enumerate", "--space", "edge", stdin=gen.stdout)
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "0 equilibria"

    def test_enumeration_cost_does_not_grow_with_weights(self):
        """a owes b and c 10^12 each; c holds 1 and owes a 1. a holds 1 under
        either ranking and pays it on, so both rankings are equilibria with
        revenue 3. Enumeration must not tabulate every asset level."""
        w = 10**12
        doc = {
            "nodes": [
                {"id": "a", "external": 0},
                {"id": "b", "external": 0},
                {"id": "c", "external": 1},
            ],
            "edges": [
                {"id": 0, "src": "a", "dst": "b", "weight": w},
                {"id": 1, "src": "a", "dst": "c", "weight": w},
                {"id": 2, "src": "c", "dst": "a", "weight": 1},
            ],
            "strategies": [],
        }
        result = run_cli("enumerate", "--space", "edge", stdin=json.dumps(doc))
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "2 equilibria"
        assert sum("revenue = 3" in line for line in lines) == 2

    def test_ring_game_metrics(self):
        gen = run_cli("gen", "spoa", "--d", "5")
        result = run_cli("metrics", stdin=gen.stdout)
        assert result.returncode == 0
        assert "spoa = 4/1" in result.stdout

    def test_pro_rata_clearing_prints_fractions(self, fixtures_dir):
        result = run_cli("clear", "--pro-rata", str(fixtures_dir / "two_cycle.json"))
        assert result.returncode == 0
        assert "a_u = 2/1" in result.stdout
        assert "a_v = 1/1" in result.stdout

    def test_kleene_oracle_stops_at_its_budget(self):
        """u and v owe each other W and hold nothing; v pays 1 to s first.
        From the top, each Jacobi lap lowers the cycle by one unit, so the
        oracle would take W laps to reach revenue 0."""
        w = 10**6
        doc = {
            "nodes": [{"id": v, "external": 0} for v in ("s", "u", "v")],
            "edges": [
                {"id": 0, "src": "u", "dst": "v", "weight": w},
                {"id": 1, "src": "v", "dst": "u", "weight": w},
                {"id": 2, "src": "v", "dst": "s", "weight": 1},
            ],
            "strategies": [
                {"owner": "u", "kind": "edge-ranking", "ranking": [0]},
                {"owner": "v", "kind": "edge-ranking", "ranking": [2, 1]},
            ],
        }
        text = json.dumps(doc)
        capped = run_cli("clear", "--oracle", "kleene-top", "--max-candidates", "50", stdin=text)
        assert capped.returncode == 3
        assert capped.stdout == ""
        assert capped.stderr == "kleene-top: stopped after 50 iterations: candidate cap of 50 reached\n"
        timed = run_cli("clear", "--oracle", "kleene-top", "--timeout-secs", "0.2", stdin=text)
        assert timed.returncode == 3
        assert "timeout of 0.2 s reached" in timed.stderr
        bottom = run_cli("clear", "--oracle", "kleene-bottom", "--max-candidates", "50", stdin=text)
        assert bottom.returncode == 0  # from the bottom, nothing moves
        assert bottom.stdout.splitlines()[-1] == "revenue = 0"

    def test_unknown_subcommand_exits_64_with_usage(self):
        result = run_cli("frobnicate")
        assert result.returncode == 64
        assert "usage:" in result.stderr

    def test_unknown_flag_exits_64(self):
        result = run_cli("clear", "--bogus")
        assert result.returncode == 64

    def test_invalid_document_exits_2(self):
        result = run_cli("validate", stdin='{"nodes": [{"id": "a", "external": -3}], "edges": []}')
        assert result.returncode == 2
        assert "negative-external" in result.stdout

    def test_budget_exhaustion_exits_3_with_partial_output(self):
        gen = run_cli("gen", "no-nash")
        result = run_cli(
            "enumerate", "--space", "edge", "--max-candidates", "3", stdin=gen.stdout
        )
        assert result.returncode == 3
        assert "0 equilibria" in result.stdout

    def test_output_is_byte_deterministic(self, cli_env):
        gen = run_cli("gen", "pos-unbounded", "--m", "6")
        first = run_cli("metrics", "--no-d", stdin=gen.stdout, env=cli_env)
        second = run_cli("metrics", "--no-d", stdin=gen.stdout, env=cli_env)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    def test_opt_se_ignores_document_order(self):
        """The optimum of gen pos-unbounded is not unique, so the thresholds
        opt-se prints depend on tie-breaking; that must follow node and edge
        ids, never the order in which the document lists them."""
        doc = run_cli("gen", "pos-unbounded", "--m", "10").stdout
        base = run_cli("opt-se", stdin=doc)
        assert base.returncode == 0
        rng = random.Random(5)
        for _ in range(3):
            payload = json.loads(doc)
            rng.shuffle(payload["nodes"])
            rng.shuffle(payload["edges"])
            shuffled = run_cli("opt-se", stdin=json.dumps(payload))
            assert shuffled.returncode == 0
            assert shuffled.stdout == base.stdout

    def test_clearing_ignores_the_seed(self, fixtures_dir, cli_env):
        doc = run_cli("gen", "poa-unbounded").stdout
        base = None
        for seed in ("1", "7", "424242"):
            env = dict(cli_env, FINCLEAR_SEED=seed)
            payload = json.loads(doc)
            payload["strategies"] = [
                {"owner": "f1", "kind": "edge-ranking", "ranking": [2, 0]},
                {"owner": "f2", "kind": "edge-ranking", "ranking": [3, 1]},
            ]
            result = run_cli("clear", stdin=json.dumps(payload), env=env)
            assert result.returncode == 0
            base = base or result.stdout
            assert result.stdout == base

    def test_export_dot_round_trip(self, fixtures_dir):
        result = run_cli("export-dot", str(fixtures_dir / "two_cycle.json"))
        assert result.returncode == 0
        assert result.stdout.startswith("digraph")

    def test_best_response_subcommand(self, fixtures_dir):
        gen = run_cli("gen", "sat", "--vars", "1", "--clause", "1")
        result = run_cli(
            "best-response", "--firm", "pool", "--space", "edge", stdin=gen.stdout
        )
        assert result.returncode == 0
        assert "value = 2" in result.stdout  # starter plus the satisfied clause

    def test_gen_rejects_missing_parameters(self):
        assert run_cli("gen", "spoa").returncode == 64
        assert run_cli("gen", "sat", "--vars", "2").returncode == 64
        assert run_cli("gen", "3dm", "--elements", "1,2,3").returncode == 64
        # Present but out of range: the generators' ValueErrors are usage errors.
        for argv in (
            "3dm --elements 1,2 --triple 1,2,3 --variant best-response",
            "3dm --elements 1,1,2 --triple 1,1,2 --variant decision",
            "3dm --elements 1,2,3 --triple 1,2,4 --variant decision",
            "sat --vars 2 --clause 1,5",
            "sat --vars 2 --clause 0,1",
            "spoa --d 1",
            "edge-spos --n 1 --m 3",
            "pos-unbounded --m -1",
        ):
            result = run_cli("gen", *argv.split())
            assert result.returncode == 64, argv
            assert "Traceback" not in result.stderr, argv


def _reference_digits(n: int) -> str:
    """Decimal digits of n >= 0, 18 at a time from the low end."""
    chunks = []
    while True:
        n, low = divmod(n, 10**18)
        if not n:
            return "".join([str(low), *(f"{c:018d}" for c in reversed(chunks))])
        chunks.append(low)


def test_fmt_prints_fractions_past_the_int_to_str_limit():
    limit = sys.get_int_max_str_digits()
    sevens = 7 * (10**5000 - 1) // 9
    assert _fmt(Fraction(sevens, 10**4999 + 3)).split("/") == ["7" * 5000, "1" + "0" * 4998 + "3"]
    big = random.Random(3).getrandbits(30_000)
    assert _fmt(Fraction(-big, 7)) == f"-{_reference_digits(big)}/7"
    assert _fmt(Fraction(12, 8)) == "3/2"
    assert sys.get_int_max_str_digits() == limit
