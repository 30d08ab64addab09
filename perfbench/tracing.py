"""Spans around mortflow's public functions, installed from outside.

The package imports by name (``from .smoothing import lowess``), so a
wrapper is bound under every mortflow module attribute that holds the
original function, not only in the defining module.  Spans are kept in
memory: name, parent, start and duration, with the parent taken from a
stack of open wrappers.  A span's self time is its duration minus the
durations of its direct child spans.
"""

import json
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span, in report order.
SPANNED = (
    ("data", "read_csv"),
    ("data", "pool_and_convert"),
    ("tucker", "hosvd"),
    ("tucker", "project_schedule"),
    ("pca", "fit_core_pca"),
    ("pca", "score_grid"),
    ("smoothing", "lowess"),
    ("smoothing", "era_lowess"),
    ("flowfield", "fit_flowfield"),
    ("flowfield", "series_from_fit"),
    ("convergence", "estimate_rates"),
    ("convergence", "pooled_autocorr"),
    ("pipeline", "fit_basis"),
    ("pipeline", "fit_dynamics"),
    ("pipeline", "fit_model"),
    ("forecast", "run_forecast"),
    ("forecast", "country_state"),
    ("forecast", "tier1_state"),
    ("forecast", "tier2_state"),
    ("forecast", "write_schedule_csv"),
    ("lifetable", "e0_by_sex"),
    ("evaluation", "grid_search"),
    ("evaluation", "run_loco_cv"),
    ("evaluation", "entry_state"),
    ("evaluation", "calibrate_pi"),
    ("evaluation", "metric_report"),
    ("artifact", "save_model"),
    ("artifact", "load_model"),
    ("cli", "main"),
)


def _records(args, kwargs, result):
    return len(result)


# Counts taken at a span boundary: counter name -> function of the call.
COUNTERS = {
    "data.read_csv": ("data.read_csv.rows", _records),
    "smoothing.lowess": ("smoothing.lowess.points",
                         lambda args, kwargs, result: len(args[0])),
    "forecast.run_forecast": (
        "forecast.run_forecast.steps",
        lambda args, kwargs, result: int(
            (args[4] if len(args) > 4 else kwargs["config"]).horizon)),
    "evaluation.run_loco_cv": ("evaluation.records", _records),
    "artifact.save_model": (
        "artifact.bytes",
        lambda args, kwargs, result: os.path.getsize(
            args[1] if len(args) > 1 else kwargs["path"])),
}

COUNT_NAMES = ("data.read_csv.rows", "smoothing.lowess.points",
               "smoothing.ExtendedFn.calls", "forecast.run_forecast.steps",
               "evaluation.records", "artifact.bytes")

# ROADMAP baseline stages: name -> (span, required parent span or None).
# Each stage is the summed inclusive duration of the matching spans.
STAGES = (
    ("csv_read", "data.read_csv", None),
    ("pooling", "data.pool_and_convert", None),
    ("hosvd", "tucker.hosvd", None),
    ("pca", "pca.fit_core_pca", None),
    ("series", "flowfield.series_from_fit", None),
    ("era_lowess", "smoothing.era_lowess", None),
    ("trajectory_lowess", "smoothing.lowess", "flowfield.fit_flowfield"),
    ("rates", "convergence.estimate_rates", None),
    ("state", "forecast.country_state", None),
    ("engine", "forecast.run_forecast", None),
    ("life_table", "lifetable.e0_by_sex", None),
    ("artifact_save", "artifact.save_model", None),
    ("artifact_load", "artifact.load_model", None),
)


class Tracer:
    """In-memory span recorder; ``install`` wraps the package in place."""

    def __init__(self):
        self.names = []       # span index -> name
        self.parents = []     # span index -> parent span index or -1
        self.starts = []
        self.durations = []
        self.child_time = []  # summed durations of direct children
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.starts.append(0.0)
            self.durations.append(0.0)
            self.child_time.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self.starts[idx] = start
                self.durations[idx] = dur
                if stack:
                    self.child_time[stack[-1]] += dur
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Rebind every traced function in every loaded mortflow module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == "mortflow" or n.startswith("mortflow."))]
        for mod_name, fn_name in SPANNED:
            original = getattr(sys.modules[f"mortflow.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

        # about 137k calls per demo grid: counted, never spanned
        extended = sys.modules["mortflow.smoothing"].ExtendedFn
        call = extended.__call__
        counts = self.counts

        def counted_call(obj, s):
            counts["smoothing.ExtendedFn.calls"] += 1
            return call(obj, s)

        self._restore.append((extended, "__call__", call))
        extended.__call__ = counted_call

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def mark(self):
        """Position after a run's set-up: spans so far and count totals."""
        return len(self.names), dict(self.counts)

    def per_cycle(self, mark, n_cycles):
        """Per-layer numbers: the set-up once plus the mean timed cycle.

        Returns {metric name: value} with ``<span>.calls`` and
        ``<span>.self_s`` for every traced function, every count, and
        ``stage.<name>_s`` inclusive times for the ROADMAP stages.
        """
        split, setup_counts = mark
        totals = defaultdict(float)

        def add(key, value, i):
            totals[key] += value if i < split else value / n_cycles

        for i, name in enumerate(self.names):
            add(f"{name}.calls", 1, i)
            add(f"{name}.self_s", self.durations[i] - self.child_time[i], i)
        for stage, span, parent in STAGES:
            for i, name in enumerate(self.names):
                parent_name = (self.names[self.parents[i]]
                               if self.parents[i] >= 0 else None)
                if name == span and parent in (None, parent_name):
                    add(f"stage.{stage}_s", self.durations[i], i)
        for name in COUNT_NAMES:
            before = setup_counts.get(name, 0)
            totals[name] = before + (self.counts[name] - before) / n_cycles
        out = {}
        for mod, fn in SPANNED:
            out[f"{mod}.{fn}.calls"] = totals[f"{mod}.{fn}.calls"]
            out[f"{mod}.{fn}.self_s"] = totals[f"{mod}.{fn}.self_s"]
        out.update({name: totals[name] for name in COUNT_NAMES})
        out.update({f"stage.{stage}_s": totals[f"stage.{stage}_s"]
                    for stage, _, _ in STAGES})
        return out

    def write(self, path):
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                parent = self.parents[i]
                fh.write(json.dumps({
                    "id": i, "name": name,
                    "parent": None if parent < 0 else parent,
                    "start": self.starts[i], "duration": self.durations[i],
                    "self": self.durations[i] - self.child_time[i],
                }) + "\n")
