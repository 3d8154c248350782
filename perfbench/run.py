"""finclear benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload clear-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in fresh processes of
this interpreter (``worker.py``) with ``FINCLEAR_SEED`` unset: one that sets
up and times whole passes over the workload's jobs for ``--seconds``, and
SETUP_SAMPLES more that only set up and exit. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Pass and job times are end-to-end metrics in units of a fixed
reference computation timed beside each pass (``worker.reference_seconds``);
the report file keeps them in seconds too. The workers' full reports go to
``perfbench/out/result-<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("clear-large", "search-gadgets", "welfare")
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170


def _worker(args, deadline: float, setup_only: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FINCLEAR_SEED"}
    # A fixed hash seed keeps set and dict layouts, and so timings, the same
    # from process to process; no result depends on it.
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "finclear" / "cli.py").is_file():
        print(f"no finclear sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    # Half the set-up samples run before the timed process and half after,
    # so that they see the machine at different times.
    try:
        setups = [_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        report = _worker(args, deadline, setup_only=False)
        setups += [_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])
    report["setup_samples_s"] = setups

    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {
            "pass_rel": {"value": statistics.median(report["pass_rel"]), "unit": "ref"},
            "slowest_job_rel": {"value": statistics.median(report["slowest_job_rel"]), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for problem in report["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
