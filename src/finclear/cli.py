"""Command-line entry points: batch clearing, equilibrium analysis, generators.

Every command reads a network document from a file argument (or stdin when
the argument is "-" or omitted), validates it, and writes deterministic text
to stdout. Exit codes: 0 success, 2 invalid input, 3 budget exhaustion
(a search still prints its partial results; a Kleene oracle prints only the
reason, on stderr), 64 usage errors, 141 (128 + SIGPIPE) when stdout was
closed before the output was written.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from fractions import Fraction
from typing import Sequence

from . import clearing
from .clearing import (
    BudgetExhaustedError,
    KleeneStart,
    clear_pro_rata,
    kleene_clearing,
)
from .core import (
    UNBOUNDED,
    FinancialNetwork,
    FinclearError,
    collector_paused,
    revenue,
    validate_network,
)
from .equilibria import (
    SearchBudget,
    SearchSpace,
    Verdict,
    best_response_exact,
    enumerate_equilibria,
    is_nash,
    is_strong_equilibrium,
    optimal_strong_equilibrium,
    welfare_metrics,
)
from .instances import (
    SatFormula,
    ThreeDmInstance,
    ThreeDmVariant,
    gen_edge_spos_family,
    gen_from_3dm,
    gen_from_sat,
    gen_no_nash,
    gen_poa_unbounded,
    gen_pos_unbounded,
    gen_spoa_family,
)
from .io import NetworkDocument, parse_document, render_document, render_dot
from .strategies import (
    EdgeRankingStrategy,
    StrategyProfile,
    ThresholdRankingStrategy,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141

SEED_ENV = "FINCLEAR_SEED"


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit 64 instead of 2."""

    def error(self, message: str):
        raise _UsageError(self, message)


class _InputError(Exception):
    """Bad input data: an unreadable file, failed validation, missing strategy."""


def _read_document(path: str | None) -> NetworkDocument:
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _InputError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_document(text)


def _validated(doc: NetworkDocument) -> FinancialNetwork:
    report = validate_network(doc.network)
    if not report.ok:
        lines = [f"{v.code}: {v.detail}" for v in report.violations]
        raise _InputError("\n".join(lines))
    return doc.network


def _full_profile(
    net: FinancialNetwork, doc_profile: StrategyProfile, override: StrategyProfile | None
) -> StrategyProfile:
    profile = override if override is not None else doc_profile
    missing = [v for v in net.debtors() if v not in profile.strategies]
    if missing:
        raise _InputError(
            "no strategy for firm(s): " + ", ".join(missing)
        )
    return profile


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size. ``str`` refuses ints longer than
    the interpreter's digit limit (4300 by default, 640 at the least), so
    long ones are split in halves by a power of ten, without touching that
    process-wide limit."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    half = n.bit_length() * 3 // 20  # about half of its digits
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if value is UNBOUNDED:
        return "unbounded"
    if isinstance(value, Fraction):
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    return str(value)


def _fmt_strategy(strat) -> str:
    ranking = ",".join(str(e) for e in strat.ranking)
    if isinstance(strat, ThresholdRankingStrategy):
        taus = " ".join(
            f"{edge_id}:{tau}" for edge_id, tau in sorted(strat.threshold_map().items())
        )
        return f"threshold ranking=[{ranking}] thresholds=[{taus}]"
    return f"edge-ranking ranking=[{ranking}]"


def _budget(args) -> SearchBudget:
    return SearchBudget(
        max_candidates=args.max_candidates, timeout_secs=args.timeout_secs
    )


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-candidates", type=int, default=1_000_000)
    parser.add_argument("--timeout-secs", type=float, default=60.0)


def _cycle_rng() -> random.Random | None:
    seed = os.environ.get(SEED_ENV)
    return random.Random(int(seed)) if seed else None


# --------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    doc = _read_document(args.network)
    report = validate_network(doc.network)
    if report.ok:
        print("ok")
        return EXIT_OK
    for violation in report.violations:
        print(f"{violation.code}: {violation.detail}")
    return EXIT_INVALID


def _cmd_clear(args) -> int:
    clashing = [flag for flag, value in (("--oracle", args.oracle), ("--profile", args.profile)) if value]
    if args.pro_rata and clashing:  # pro-rata clearing uses no strategy
        raise _UsageError(_build_parser(), "--pro-rata cannot be combined with " + " or ".join(clashing))
    doc = _read_document(args.network)
    net = _validated(doc)
    if args.pro_rata:
        try:
            result = clear_pro_rata(net, budget=_budget(args))
        except BudgetExhaustedError as exc:
            print(f"pro-rata: {exc}", file=sys.stderr)
            return EXIT_EXHAUSTED
        assets = result.state.assets
        sys.stdout.write("".join([f"a_{v} = {_fmt(Fraction(assets[v]))}\n" for v in net.nodes]))
        print(f"revenue = {_fmt(Fraction(sum(assets[v] for v in net.nodes)))}")
        print(f"converged = {'true' if result.converged else 'false'}")
        return EXIT_OK
    override = None
    if args.profile:
        override = _read_document(args.profile).profile
    profile = _full_profile(net, doc.profile, override)
    if args.oracle is None:
        # The loader compiled the document's strategies against net, an
        # override's against its own document, so those are compiled again.
        # Clearing layers are looked up on their module, where tracing wraps them.
        if override is None:
            circ = clearing.build_circulation_network(net)
            schedules = clearing.schedules_from(circ, doc.segments)
            state = clearing.cleared_state(circ, schedules, cycle_rng=_cycle_rng())
        else:
            state = clearing.top_cycle_increase(net, profile, cycle_rng=_cycle_rng())
    else:
        start = KleeneStart.TOP if args.oracle == "kleene-top" else KleeneStart.BOTTOM
        try:
            state = kleene_clearing(net, profile, start=start, budget=_budget(args))
        except BudgetExhaustedError as exc:
            print(f"{args.oracle}: {exc}", file=sys.stderr)
            return EXIT_EXHAUSTED
    assets = state.assets
    sys.stdout.write("".join([f"a_{v} = {assets[v]}\n" for v in net.nodes]))
    print(f"revenue = {revenue(net, state)}")
    return EXIT_OK


def _cmd_opt_se(args) -> int:
    doc = _read_document(args.network)
    net = _validated(doc)
    result = optimal_strong_equilibrium(net)
    if args.emit_document:
        sys.stdout.write(render_document(net, result.profile))
        return EXIT_OK
    print(f"revenue = {result.revenue}")
    for v in net.nodes:
        strat = result.profile.strategies.get(v)
        if strat is not None:
            print(f"strategy {v} = {_fmt_strategy(strat)}")
    return EXIT_OK


def _cmd_best_response(args) -> int:
    doc = _read_document(args.network)
    net = _validated(doc)
    firm = args.firm
    if firm not in net.nodes:
        raise _InputError(f"unknown firm '{firm}'")
    profile = doc.profile
    if firm not in profile.strategies and net.out_ids(firm):
        default = EdgeRankingStrategy(firm, tuple(net.out_ids(firm)))
        profile = profile.replace(default)
    profile = _full_profile(net, profile, None)
    result = best_response_exact(
        net, profile, firm, space=SearchSpace(args.space), budget=_budget(args)
    )
    print(f"value = {result.value}")
    print(f"strategy = {_fmt_strategy(result.strategy)}")
    print(f"exhaustive = {'true' if result.exhaustive else 'false'}")
    return EXIT_OK if result.exhaustive else EXIT_EXHAUSTED


def _cmd_check(args) -> int:
    doc = _read_document(args.network)
    net = _validated(doc)
    profile = _full_profile(net, doc.profile, None)
    check = is_strong_equilibrium if args.strong else is_nash
    report = check(net, profile, budget=_budget(args), space=SearchSpace(args.space))
    print(f"verdict = {report.verdict.value}")
    print(f"exhaustive = {'true' if report.exhaustive else 'false'}")
    if report.witness is not None:
        coalition = ",".join(report.witness.coalition)
        print(f"witness coalition = {coalition}")
        for v in report.witness.coalition:
            print(
                f"witness {v}: {report.witness.before[v]} -> {report.witness.after[v]}"
            )
    conclusive = report.verdict in (Verdict.NOT_NASH, Verdict.NOT_STRONG)
    if conclusive or report.exhaustive:
        return EXIT_OK
    return EXIT_EXHAUSTED


def _cmd_enumerate(args) -> int:
    doc = _read_document(args.network)
    net = _validated(doc)
    result = enumerate_equilibria(
        net,
        space=SearchSpace(args.space),
        budget=_budget(args),
        fixed=doc.profile if doc.profile.strategies else None,
    )
    count = len(result.findings)
    print(f"{count} equilibria" if count != 1 else "1 equilibrium")
    for i, finding in enumerate(result.findings, start=1):
        print(f"equilibrium {i}: revenue = {revenue(net, finding.state)}")
        for v in net.nodes:
            strat = finding.profile.strategies.get(v)
            if strat is not None:
                print(f"  {v}: {_fmt_strategy(strat)}")
    if not result.exhaustive:
        print("search exhausted budget; results may be incomplete")
        return EXIT_EXHAUSTED
    return EXIT_OK


def _cmd_metrics(args) -> int:
    doc = _read_document(args.network)
    net = _validated(doc)
    metrics = welfare_metrics(
        net,
        space=SearchSpace(args.space),
        budget=_budget(args),
        fixed=doc.profile if doc.profile.strategies else None,
        compute_d=not args.no_d,
    )
    print(f"opt = {metrics.opt_revenue}")
    print(f"best_eq = {_fmt(metrics.best_eq_revenue)}")
    print(f"worst_eq = {_fmt(metrics.worst_eq_revenue)}")
    print(f"poa = {_fmt(metrics.poa)}")
    print(f"pos = {_fmt(metrics.pos)}")
    print(f"spoa = {_fmt(metrics.spoa)}")
    print(f"spos = {_fmt(metrics.spos)}")
    print(f"d = {metrics.d_bound}")
    print(f"d_exact = {'true' if metrics.d_exact else 'false'}")
    return EXIT_OK if metrics.exhaustive else EXIT_EXHAUSTED


def _parse_clause(text: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise _UsageError(parser, f"bad clause '{text}': expected comma-separated integers")


def _cmd_gen(args, parser: argparse.ArgumentParser) -> int:
    family = args.family
    profile: StrategyProfile | None = None
    try:
        if family == "no-nash":
            net, profile = gen_no_nash()
        elif family == "spoa":
            if args.d is None:
                raise _UsageError(parser, "gen spoa requires --d")
            net = gen_spoa_family(args.d)
        elif family == "poa-unbounded":
            net = gen_poa_unbounded()
        elif family == "edge-spos":
            if args.n is None or args.m is None:
                raise _UsageError(parser, "gen edge-spos requires --n and --m")
            net = gen_edge_spos_family(args.n, args.m)
        elif family == "pos-unbounded":
            if args.m is None:
                raise _UsageError(parser, "gen pos-unbounded requires --m")
            net = gen_pos_unbounded(args.m)
        elif family == "sat":
            if args.vars is None or not args.clause:
                raise _UsageError(parser, "gen sat requires --vars and at least one --clause")
            formula = SatFormula.of(
                args.vars, [_parse_clause(c, parser) for c in args.clause]
            )
            net, profile, _ = gen_from_sat(formula)
        elif family == "3dm":
            if args.elements is None or args.variant is None:
                raise _UsageError(parser, "gen 3dm requires --elements and --variant")
            elements = _parse_clause(args.elements, parser)
            triples = [_parse_clause(t, parser) for t in (args.triple or [])]
            for t in triples:
                if len(t) != 3:
                    raise _UsageError(parser, f"--triple needs exactly 3 elements, got {t}")
            inst = ThreeDmInstance.of(elements, triples)
            net, profile, _ = gen_from_3dm(inst, ThreeDmVariant(args.variant))
    except ValueError as exc:  # a generator rejected a parameter value
        raise _UsageError(parser, str(exc)) from None
    sys.stdout.write(render_document(net, profile))
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    net = _validated(_read_document(args.network))  # drops the strategies and their schedules
    sys.stdout.write(render_dot(net))
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser wiring


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first ``main`` call and reused
    by every later one. Reuse carries no state between calls: each
    ``parse_args`` returns a fresh ``Namespace``, and ``append`` options
    start from a copy of their default."""
    parser = _Parser(prog="finclear", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def with_network(p):
        p.add_argument("network", nargs="?", default=None,
                       help="network document path, or - for stdin (default)")
        return p

    with_network(sub.add_parser("validate", help="check network invariants"))

    clear = with_network(sub.add_parser("clear", help="compute the maximal clearing state"))
    clear.add_argument("--profile", help="document supplying the strategy profile")
    clear.add_argument("--pro-rata", action="store_true")
    clear.add_argument("--oracle", choices=["kleene-top", "kleene-bottom"])
    # Bounds the Kleene oracles, one candidate per iteration, and --pro-rata,
    # one candidate per row elimination.
    _add_budget_flags(clear)

    opt_se = with_network(sub.add_parser("opt-se", help="optimal strong equilibrium"))
    opt_se.add_argument("--emit-document", action="store_true",
                        help="print the network with the equilibrium strategies")

    br = with_network(sub.add_parser("best-response", help="exact best response"))
    br.add_argument("--firm", required=True)
    br.add_argument("--space", choices=["edge", "threshold"], default="edge")
    _add_budget_flags(br)

    check = with_network(sub.add_parser("check", help="verify an equilibrium"))
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--nash", action="store_true")
    group.add_argument("--strong", action="store_true")
    check.add_argument("--space", choices=["edge", "threshold"], default="edge")
    _add_budget_flags(check)

    enum = with_network(sub.add_parser("enumerate", help="list all pure equilibria"))
    enum.add_argument("--space", choices=["edge", "threshold"], default="edge")
    _add_budget_flags(enum)

    metrics = with_network(sub.add_parser("metrics", help="welfare and anarchy metrics"))
    metrics.add_argument("--space", choices=["edge", "threshold"], default="edge")
    metrics.add_argument("--no-d", action="store_true",
                         help="skip the exact min-max cycle length")
    _add_budget_flags(metrics)

    gen = sub.add_parser("gen", help="generate an instance family")
    gen.add_argument("family", choices=[
        "no-nash", "spoa", "poa-unbounded", "edge-spos", "pos-unbounded", "sat", "3dm",
    ])
    gen.add_argument("--d", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--vars", type=int)
    gen.add_argument("--clause", action="append")
    gen.add_argument("--elements")
    gen.add_argument("--triple", action="append")
    gen.add_argument("--variant", choices=["best-response", "decision"])

    with_network(sub.add_parser("export-dot", help="emit a DOT drawing"))
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "clear": _cmd_clear,
    "opt-se": _cmd_opt_se,
    "best-response": _cmd_best_response,
    "check": _cmd_check,
    "enumerate": _cmd_enumerate,
    "metrics": _cmd_metrics,
    "export-dot": _cmd_export_dot,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; its exit code. The whole command, from parsing its
    arguments to its last line of output, runs with the cyclic garbage
    collector paused (``collector_paused``). finclear builds no reference
    cycles, so the pause holds back none of its garbage; argparse leaves a
    help formatter cycle per argument when it builds the parser, once per
    process, and one per usage error.

    A reader that closes stdout early (``finclear clear DOC | head``) stops
    the command: it exits ``EXIT_BROKEN_PIPE`` (141) without a traceback.
    stdout is flushed before ``main`` returns, so a closed pipe is found
    here and not at interpreter exit; stdout's file descriptor, when it has
    one, is then pointed at ``os.devnull`` so that the exit flush of what is
    still buffered stays quiet."""
    try:
        code = collector_paused(_main, argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE


def _discard_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # StringIO and the like
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _main(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser, "a subcommand is required")
        if args.command == "gen":
            return _cmd_gen(args, parser)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc.parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_InputError, FinclearError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
