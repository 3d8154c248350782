"""Per-layer tracing of finclear from outside the package.

``Tracer.install`` replaces each layer's public entry point where its caller
looks it up (``finclear.equilibria.clear_circulation``,
``finclear.clearing.check_strategy``, ...) with a wrapper that opens a span;
``uninstall`` puts the originals back, so untraced passes run the program
untouched. Self times (a span's duration minus its child spans) and call
counts are summed while the pass runs. The spans of the first traced pass
(name, start, end, parent) are also kept in memory and written out at the
end of the run.

An entry point that a later version of finclear no longer has is skipped and
its metrics read 0; ``Tracer.missing`` lists it.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array

# (module, attribute path, span name). One function may be looked up in
# several modules; each lookup gets its own wrapper.
ENTRY_POINTS = (
    ("finclear.cli", "parse_document", "io.parse"),
    ("finclear.cli", "render_document", "io.render"),
    ("finclear.cli", "render_dot", "io.render"),
    ("finclear.cli", "validate_network", "core.validate"),
    ("finclear.core", "validate_network", "core.validate"),
    ("finclear.clearing", "build_circulation_network", "core.build_circulation"),
    ("finclear.equilibria", "build_circulation_network", "core.build_circulation"),
    ("finclear.equilibria", "decompose_circulation", "core.decompose"),
    ("finclear.clearing", "clear_circulation", "clearing.clear"),
    ("finclear.equilibria", "clear_circulation", "clearing.clear"),
    ("finclear.cli", "clear_pro_rata", "clearing.pro_rata"),
    ("finclear.clearing", "check_strategy", "strategies.check_strategy"),
    ("finclear.io", "check_strategy", "strategies.check_strategy"),
    ("finclear.strategies", "StrategyProfile.signature", "strategies.profile_signature"),
    ("finclear.equilibria", "behavior_signature", "strategies.behavior_signature"),
    ("finclear.equilibria", "strategy_space", "equilibria.strategy_space"),
    ("finclear.equilibria", "_Game.clear", "equilibria.cache_lookup"),
    ("finclear.equilibria", "max_value_circulation", "equilibria.max_value_circulation"),
    ("finclear.cli", "enumerate_equilibria", "equilibria.enumerate"),
    ("finclear.equilibria", "enumerate_equilibria", "equilibria.enumerate"),
    ("finclear.cli", "best_response_exact", "equilibria.best_response"),
    ("finclear.cli", "welfare_metrics", "equilibria.welfare_metrics"),
    ("finclear.equilibria", "social_optimum_edge_ranking", "equilibria.social_optimum"),
    ("finclear.equilibria", "min_max_cycle_d", "equilibria.min_max_cycle_d"),
    ("finclear.cli", "optimal_strong_equilibrium", "equilibria.optimal_strong_equilibrium"),
)
# Search budgets; their ``used`` counts sum to the candidates evaluated.
METER_CLASS = ("finclear.equilibria", "_Meter")
JOB_SPAN = "cli"


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self._stack: list[list] = []  # open spans: [name id, start, child time, span index]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.recording = False
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.reset()

    def reset(self) -> None:
        """Zero the per-pass totals."""
        self.calls = [0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.parse_bytes = 0
        self.pro_rata_iterations = 0
        self.cache_misses = 0
        self.meters: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return self._ids[name]

    # -- spans ------------------------------------------------------------

    def _open(self, nid: int) -> list:
        stack = self._stack
        frame = [nid, 0.0, 0.0, -1]
        if self.recording:
            frame[3] = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        stack.append(frame)
        frame[1] = time.perf_counter()
        if frame[3] >= 0:
            self.span_start[frame[3]] = frame[1]
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        nid, start, child, idx = frame
        duration = end - start
        self.calls[nid] += 1
        self.self_time[nid] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if idx >= 0:
            self.span_end[idx] = end

    def job(self, fn, *args):
        """Run one job inside a top-level ``cli`` span."""
        frame = self._open(self._id(JOB_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(frame)

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        lookup = self._id("equilibria.cache_lookup")
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            if name == "clearing.clear" and self._stack and self._stack[-1][0] == lookup:
                self.cache_misses += 1
            elif name == "io.parse":
                self.parse_bytes += len(args[0])
            frame = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame)
            if name == "clearing.pro_rata":
                self.pro_rata_iterations += result.iterations
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module, path, name in ENTRY_POINTS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        found = _resolve(*METER_CLASS)
        if found is None:
            self.missing.append(".".join(METER_CLASS))
        else:
            meter_cls = found[2]
            init = meter_cls.__init__

            def register(meter, *args, **kwargs):
                init(meter, *args, **kwargs)
                self.meters.append(meter)

            self._patched.append((meter_cls, "__init__", init))
            meter_cls.__init__ = register

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        self.missing = sorted(set(self.missing))

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """This pass's per-layer figures, by span name and counter."""
        per_name = {
            name: (self.calls[i], self.self_time[i]) for i, name in enumerate(self.names)
        }
        return {
            "spans": per_name,
            "parse_bytes": self.parse_bytes,
            "pro_rata_iterations": self.pro_rata_iterations,
            "cache_misses": self.cache_misses,
            "evaluated": sum(getattr(m, "used", 0) for m in self.meters),
        }

    def write_spans(self, path) -> int:
        """Write the recorded spans as gzip'd JSON lines; returns the count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent"]}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"[{self.span_name[i]},{self.span_start[i]!r},{self.span_end[i]!r},{self.span_parent[i]}]\n"
                )
        return len(self.span_name)


# (metric, unit, better, how to compute it from a pass's totals)
def _self(name):
    return lambda t: t["spans"].get(name, (0, 0.0))[1]


def _calls(name):
    return lambda t: t["spans"].get(name, (0, 0.0))[0]


def _per_call_us(name):
    def value(t):
        calls, secs = t["spans"].get(name, (0, 0.0))
        return secs / calls * 1e6 if calls else 0.0
    return value


def _mb_per_s(t):
    secs = _self("io.parse")(t)
    return t["parse_bytes"] / 1e6 / secs if secs else 0.0


def _hit_ratio(t):
    lookups = _calls("equilibria.cache_lookup")(t)
    return 1 - t["cache_misses"] / lookups if lookups else 0.0


LAYER_METRICS = (
    ("io.parse_s", "s", "lower", _self("io.parse")),
    ("io.parse_mb_per_s", "MB/s", "higher", _mb_per_s),
    ("io.render_s", "s", "lower", _self("io.render")),
    ("core.validate_s", "s", "lower", _self("core.validate")),
    ("core.build_circulation_calls", "count", "lower", _calls("core.build_circulation")),
    ("core.build_circulation_s", "s", "lower", _self("core.build_circulation")),
    ("core.decompose_s", "s", "lower", _self("core.decompose")),
    ("clearing.clear_calls", "count", "lower", _calls("clearing.clear")),
    ("clearing.clear_s", "s", "lower", _self("clearing.clear")),
    ("clearing.clear_us_per_call", "us", "lower", _per_call_us("clearing.clear")),
    ("clearing.pro_rata_s", "s", "lower", _self("clearing.pro_rata")),
    ("clearing.pro_rata_iterations", "count", "lower", lambda t: t["pro_rata_iterations"]),
    ("strategies.check_strategy_calls", "count", "lower", _calls("strategies.check_strategy")),
    ("strategies.check_strategy_s", "s", "lower", _self("strategies.check_strategy")),
    ("strategies.profile_signature_calls", "count", "lower", _calls("strategies.profile_signature")),
    ("strategies.profile_signature_s", "s", "lower", _self("strategies.profile_signature")),
    ("strategies.behavior_signature_calls", "count", "lower", _calls("strategies.behavior_signature")),
    ("strategies.behavior_signature_s", "s", "lower", _self("strategies.behavior_signature")),
    ("equilibria.strategy_space_s", "s", "lower", _self("equilibria.strategy_space")),
    ("equilibria.cache_lookups", "count", "lower", _calls("equilibria.cache_lookup")),
    ("equilibria.cache_lookup_s", "s", "lower", _self("equilibria.cache_lookup")),
    ("equilibria.cache_hit_ratio", "ratio", "higher", _hit_ratio),
    ("equilibria.evaluated", "count", "lower", lambda t: t["evaluated"]),
    ("equilibria.max_value_circulation_s", "s", "lower", _self("equilibria.max_value_circulation")),
    ("equilibria.enumerate_s", "s", "lower", _self("equilibria.enumerate")),
    ("equilibria.best_response_s", "s", "lower", _self("equilibria.best_response")),
    ("equilibria.social_optimum_s", "s", "lower", _self("equilibria.social_optimum")),
    ("equilibria.min_max_cycle_d_s", "s", "lower", _self("equilibria.min_max_cycle_d")),
    ("equilibria.welfare_metrics_s", "s", "lower", _self("equilibria.welfare_metrics")),
    ("equilibria.optimal_strong_equilibrium_s", "s", "lower", _self("equilibria.optimal_strong_equilibrium")),
    ("cli.self_s", "s", "lower", _self(JOB_SPAN)),
)
