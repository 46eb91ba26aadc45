"""Layer tracer: times the calls into each cmcorr module's public functions.

The tracer wraps target functions from outside the package.  A wrapper is
placed in every ``cmcorr.*`` module namespace that holds the original
function object (``cmc_exact`` as imported by ``harness`` and ``cli``,
``merge_pmf`` as imported by ``engine``, and so on), so calls made through
any of those names are seen.  Each call is one span; spans nest through an
in-memory stack, and a span's self time is its duration minus the
durations of the spans it caused.  Totals are aggregated online per target,
which keeps the cost of a span small and constant.

A target that no longer exists in its home module is skipped, and the layer
metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, self-time metric, call-count metric or None, observer)
# Every span's self time lands in exactly one self-time metric, so the
# self-time metrics plus the unattributed remainder sum to the op time.
TARGETS = (
    ("order", "is_monotone", "order.monotone_s", "order.monotone_calls",
     "monotone"),
    ("dist", "merge_pmf", "dist.merge_s", "dist.merge_calls", None),
    ("dist", "pair_stats", "dist.pair_stats_s", "dist.pair_stats_calls",
     None),
    ("dist", "strip_zero_support", "dist.strip_s", None, None),
    ("maxcorr", "residual_singular_pairs", "maxcorr.spectral_s",
     "maxcorr.spectral_calls", "spectral"),
    ("maxcorr", "maximal_correlation", "maxcorr.maxcorr_s", None, None),
    ("engine", "distinct_partitions", "engine.enumerate_s", None, None),
    ("engine", "cmc_exact", "engine.self_s", "engine.calls", "cmc"),
    ("engine", "cmc_plus", "engine.self_s", None, None),
    ("engine", "cmc_x_reversed", "engine.self_s", None, None),
    ("engine", "mgf_bound_sup", "engine.self_s", None, None),
    ("oracle", "grid_oracle", "oracle.self_s", "oracle.calls", None),
    ("classic", "pearson", "classic.s", "classic.calls", None),
    ("classic", "spearman", "classic.s", "classic.calls", None),
    ("classic", "kendall_tau_b", "classic.s", "classic.calls", None),
    ("harness", "verify_sandwich", "harness.self_s", "harness.suites",
     "suite"),
    ("harness", "verify_rank_dominance", "harness.self_s", "harness.suites",
     "suite"),
    ("harness", "verify_tensorization", "harness.self_s", "harness.suites",
     "suite"),
    ("harness", "verify_fkg", "harness.self_s", "harness.suites", "suite"),
    ("harness", "verify_mgf", "harness.self_s", "harness.suites", "suite"),
    ("harness", "verify_independence", "harness.self_s", "harness.suites",
     "suite"),
    ("cli", "main", "cli.self_s", "cli.commands", "exit"),
    ("cli", "load_instance", "cli.load_s", None, None),
)

# Report diagnostics the engine may name either way; the first key found wins.
_FACE_KEYS = ("faces_enumerated", "partitions_enumerated")
_CMC_COUNTERS = (
    ("engine.candidates_checked", ("candidates_checked",)),
    ("engine.candidates_kept", ("candidates_kept",)),
    ("engine.degenerate_spectra", ("degenerate_spectra",)),
    ("engine.faces", _FACE_KEYS),
)

# Per-layer metrics in report order, with units.  Seconds and counts are
# means per traced op; ratios carry their bases in the same report.
METRICS = (
    ("engine.enumerate_s", "s/op"),
    ("engine.faces", "count/op"),
    ("engine.faces_per_s", "1/s"),
    ("engine.self_s", "s/op"),
    ("engine.calls", "count/op"),
    ("engine.candidates_checked", "count/op"),
    ("engine.candidates_kept", "count/op"),
    ("engine.keep_ratio", "ratio"),
    ("engine.degenerate_spectra", "count/op"),
    ("dist.merge_calls", "count/op"),
    ("dist.merge_s", "s/op"),
    ("dist.pair_stats_calls", "count/op"),
    ("dist.pair_stats_s", "s/op"),
    ("dist.strip_s", "s/op"),
    ("maxcorr.spectral_calls", "count/op"),
    ("maxcorr.spectral_s", "s/op"),
    ("maxcorr.spectral_entries", "count/op"),
    ("maxcorr.maxcorr_s", "s/op"),
    ("order.monotone_calls", "count/op"),
    ("order.monotone_s", "s/op"),
    ("order.monotone_pass_ratio", "ratio"),
    ("oracle.calls", "count/op"),
    ("oracle.self_s", "s/op"),
    ("classic.calls", "count/op"),
    ("classic.s", "s/op"),
    ("harness.suites", "count/op"),
    ("harness.trials", "count/op"),
    ("harness.self_s", "s/op"),
    ("cli.commands", "count/op"),
    ("cli.self_s", "s/op"),
    ("cli.load_s", "s/op"),
    ("cli.nonzero_exits", "count/op"),
    ("bench.traced_op_s", "s/op"),
    ("bench.unattributed_s", "s/op"),
    ("bench.trace_overhead_frac", "ratio"),
)


class Tracer:
    """Wraps the targets on :meth:`install`; :meth:`uninstall` restores
    them."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.inclusive_s = defaultdict(float)
        self.root_s = 0.0          # summed duration of spans with no parent
        self.present: set[str] = set()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and
                   (name == "cmcorr" or name.startswith("cmcorr."))]
        for module, func, self_key, count_key, observer in TARGETS:
            home = sys.modules.get(f"cmcorr.{module}")
            original = getattr(home, func, None) if home else None
            if not callable(original):
                continue
            self.present.add(f"{module}.{func}")
            wrapper = self._wrap(original, f"{module}.{func}", self_key,
                                 count_key, observer)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, fn, target, self_key, count_key, observer):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration
                self.self_s[self_key] += duration - frame[0]
                self.inclusive_s[target] += duration
                if count_key:
                    self.counts[count_key] += 1
            if observer:
                self._observe(observer, args, result)
            return result

        return span

    def _observe(self, observer, args, result) -> None:
        counts = self.counts
        if observer == "monotone":
            counts["order.monotone_pass"] += bool(result)
        elif observer == "spectral":
            m, n = args[0].shape
            counts["maxcorr.spectral_entries"] += m * n
        elif observer == "cmc":
            diag = result.diagnostics
            for metric, keys in _CMC_COUNTERS:
                for key in keys:
                    if key in diag:
                        counts[metric] += int(diag[key])
                        counts[metric + "#seen"] += 1
                        break
        elif observer == "suite":
            counts["harness.trials"] += int(result.trials)
        elif observer == "exit":
            counts["cli.nonzero_exits"] += result != 0

    def metrics(self, ops: int, op_total_s: float,
                untraced_wall_s: float, traced_wall_s: float) -> dict:
        """Per-op layer metrics; a metric whose source is gone is omitted."""
        c, s = self.counts, self.self_s
        values = {}
        for module, func, self_key, count_key, _ in TARGETS:
            if f"{module}.{func}" in self.present:
                values[self_key] = s[self_key] / ops
                if count_key:
                    values[count_key] = c[count_key] / ops
        if "order.monotone_calls" in values:
            values["order.monotone_pass_ratio"] = _ratio(
                c["order.monotone_pass"], c["order.monotone_calls"])
        if "maxcorr.spectral_calls" in values:
            values["maxcorr.spectral_entries"] = \
                c["maxcorr.spectral_entries"] / ops
        if "engine.calls" in values:
            for metric, _ in _CMC_COUNTERS:
                # absent when the engine runs but stopped reporting the key
                if c[metric + "#seen"] or not c["engine.calls"]:
                    values[metric] = c[metric] / ops
            if "engine.faces" in values:
                engine_s = self.inclusive_s["engine.cmc_exact"]
                values["engine.faces_per_s"] = _ratio(c["engine.faces"],
                                                      engine_s)
            if "engine.candidates_checked" in values and \
                    "engine.candidates_kept" in values:
                values["engine.keep_ratio"] = _ratio(
                    c["engine.candidates_kept"],
                    c["engine.candidates_checked"])
        if "harness.suites" in values:
            values["harness.trials"] = c["harness.trials"] / ops
        if "cli.commands" in values:
            values["cli.nonzero_exits"] = c["cli.nonzero_exits"] / ops
        values["bench.traced_op_s"] = op_total_s / ops
        values["bench.unattributed_s"] = (op_total_s - self.root_s) / ops
        values["bench.trace_overhead_frac"] = \
            traced_wall_s / untraced_wall_s - 1.0
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS if name in values}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
