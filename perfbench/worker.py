"""One benchmark process: set up a workload, time passes over it, check outputs.

Started by ``run.py``, never by hand. It builds the workload's inputs, then
runs whole passes over the job list, each job an in-process call of
``finclear.cli.main(argv)``, until ``--seconds`` have passed. After the timed
passes it checks every output and prints one JSON line on stdout.

With ``--setup-only`` it stops where the first timed job would start and
reports only its set-up time. With ``--trace 1`` it alternates untraced and
traced passes and reports per-layer figures from the traced ones.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3
REFERENCE_ROUNDS = 6_000


def reference_seconds() -> float:
    """Median time of three runs of a fixed pure-Python computation.

    The computation builds and sums many small dicts of tuple keys and list
    values, the kinds of objects finclear churns, without holding on to
    memory. Pass times are reported in units of it, measured beside each
    pass, so that drift in the host's speed cancels out.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ROUNDS):
            row = {}
            for j in range(16):
                row[(j, i & 3)] = [j, 3 * i]
            for key, value in row.items():
                total += value[1] - key[1]
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _import_finclear():
    """finclear from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    from finclear import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"finclear was imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def run_job(cli, argv: list[str], stdin_text: str | None) -> tuple[int | None, str, str]:
    """(exit code or None if it raised, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text if stdin_text is not None else "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                traceback.print_exc()
                code = None
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, jobs, tracer=None) -> dict:
    """Run every job once, in order; returns times, exit codes and outputs."""
    outputs, codes, times, errors = [], [], [], []
    start = time.perf_counter()
    for job in jobs:
        stdin_text = outputs[job.stdin] if isinstance(job.stdin, int) else job.stdin
        t0 = time.perf_counter()
        if tracer is None:
            code, out, err = run_job(cli, job.argv, stdin_text)
        else:
            code, out, err = tracer.job(run_job, cli, job.argv, stdin_text)
        times.append(time.perf_counter() - t0)
        outputs.append(out)
        codes.append(code)
        errors.append(err)
    return {"seconds": time.perf_counter() - start, "times": times, "codes": codes,
            "outputs": outputs, "errors": errors}


def check_passes(checkers, jobs, passes) -> tuple[list[str], list[str]]:
    """(problems, labels of failed jobs). The first pass is checked against
    the reference computations; every later pass must repeat it exactly."""
    first = passes[0]
    failed = [job.label for job, code in zip(jobs, first["codes"]) if code != 0]
    problems = []
    for i, job in enumerate(jobs):
        if first["codes"][i] != 0:
            continue
        stdin_text = first["outputs"][job.stdin] if isinstance(job.stdin, int) else job.stdin
        try:
            found = job.check(checkers, first["outputs"][i], stdin_text)
        except Exception as exc:  # an unreadable output is a wrong output
            found = [f"check raised {type(exc).__name__}: {exc}"]
        problems += [f"{job.label}: {p}" for p in found]
    for n, later in enumerate(passes[1:], start=2):
        if later["codes"] != first["codes"]:
            problems.append(f"pass {n}: exit codes differ from pass 1")
        elif later["outputs"] != first["outputs"]:
            problems.append(f"pass {n}: output differs from pass 1")
    return problems, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started this process")
    args = parser.parse_args()

    cli = _import_finclear()
    import tracing
    import workloads

    workdir = OUT / f"work-{args.workload}-{args.seed}-{'setup' if args.setup_only else 'run'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        gc.collect()
        setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        plain, traced, layer_rows = [], [], []
        references = [reference_seconds()]
        deadline = time.perf_counter() + args.seconds
        while True:
            use_trace = tracer is not None and len(traced) < len(plain)
            before = references[-1]
            if use_trace:
                tracer.reset()
                tracer.recording = not traced
                tracer.install()
                try:
                    result = run_pass(cli, jobs, tracer)
                finally:
                    tracer.uninstall()
                    tracer.recording = False
                layer_rows.append(tracer.totals())
            else:
                result = run_pass(cli, jobs)
            gc.collect()
            references.append(reference_seconds())
            result["reference"] = (before + references[-1]) / 2
            (traced if use_trace else plain).append(result)
            enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= len(plain))
            if enough and time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        passes = plain + traced
        import checkers

        problems, failed = check_passes(checkers, jobs, passes)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": setup_s,
            "passes": len(plain),
            "pass_s": [p["seconds"] for p in plain],
            "slowest_job_s": [max(p["times"]) for p in plain],
            "reference_s": references,
            "pass_rel": [p["seconds"] / p["reference"] for p in plain],
            "slowest_job_rel": [max(p["times"]) / p["reference"] for p in plain],
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(jobs) * len(passes),
            "failed": sum(1 for p in passes for code in p["codes"] if code != 0),
            "failed_jobs": failed,
            "problems": problems,
            "jobs": [
                {"label": job.label, "median_s": statistics.median(p["times"][i] for p in plain),
                 "exit": plain[0]["codes"][i], "stderr": plain[0]["errors"][i][-400:]}
                for i, job in enumerate(jobs)
            ],
        }
        if tracer is not None:
            layers = {}
            for name, unit, better, value in tracing.LAYER_METRICS:
                layers[name] = {"value": statistics.median(value(row) for row in layer_rows), "unit": unit}
            untraced = statistics.median(report["pass_s"])
            traced_s = statistics.median(p["seconds"] for p in traced)
            layers["trace.pass_s"] = {"value": traced_s, "unit": "s"}
            layers["trace.untraced_pass_s"] = {"value": untraced, "unit": "s"}
            layers["trace.overhead_pct"] = {"value": 100 * (traced_s / untraced - 1), "unit": "%"}
            report["layers"] = layers
            report["missing_entry_points"] = tracer.missing
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            report["trace_file"] = str(trace_file.relative_to(ROOT))
            report["spans_written"] = tracer.write_spans(trace_file)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
