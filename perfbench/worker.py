"""Run one workload's timed cycles in a fresh process and check outputs.

Usage: python3 perfbench/worker.py PLAN.json

``run.py`` writes the plan (workload, paths of the generated inputs,
seconds, trace flag) and reads back the result file the plan names.
The process does nothing but the workload, so its peak RSS is the
workload's own.  Cycles repeat until the measured time reaches the
plan's seconds.  Each workload sets a minimum number of cycles, at
least 2 so that every run compares a rerun against the first pass;
``forecast_serve`` also runs at least the plan's ``min_requests``
requests, so that a p99 has ten samples beyond it.
"""

import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

import tracing

# mortflow names are imported inside the functions that call them, so
# that a traced run calls the tracer's wrappers.

# Share of each forecast_serve batch that enters through tier 1 and
# tier 2; the rest are in-panel countries.
TIER1_SHARE = 0.05
TIER2_SHARE = 0.10
# Cost groups of held-out origins: a tier-2 request's cost grows with the
# observed years it projects, so draws are spread evenly over the groups.
STRATA = 16
REPLAYED = 20  # tier requests of each kind re-run after timing
REFERENCE_REQUESTS = 3  # e0 paths kept for the reference check, per kind


class Checks:
    """Operation counts and the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


def _read_summary_e0(path):
    with open(path, newline="") as fh:
        return [float(row["e0_avg"]) for row in csv.DictReader(fh)]


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _file_digest(*paths):
    """SHA-256 of the files' bytes, in order (see ``_digest``)."""
    h = hashlib.sha256()
    for path in paths:
        h.update(_read_bytes(path))
    return h.digest()


def _all_finite(values):
    return len(values) > 0 and all(math.isfinite(v) for v in values)


def _run_cli(argv, checks, latencies=None):
    """One ``mortflow`` command in process; True when it exits 0."""
    from mortflow.cli import main
    checks.attempted += 1
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    if latencies is not None:
        latencies.append(time.perf_counter() - start)
    if code != 0:
        checks.fail(f"mortflow {argv[0]} exited {code}")
        return False
    return True


class PanelRefit:
    """``mortflow fit`` on the production panel, then three forecasts."""

    min_cycles = 3

    def __init__(self, plan, checks):
        self.plan = plan
        self.checks = checks
        self.first = None      # cycle-1 artifact and forecast digests
        self.outputs = {}

    def setup(self):
        pass

    def cycle(self, latencies):
        p = self.plan
        files = p["files"]
        model = f"{p['workdir']}/model.json"
        forecasts = {
            "country": ["--country", p["country"]],
            "tier1": ["--tier1-e0", files["tier1_e0"]],
            "tier2": ["--tier2-schedule", files["tier2"]],
        }
        # the forecasts are the timed requests; the fit is in wall_s only
        if not _run_cli(["fit", "--input", files["panel"], "--out", model],
                        self.checks):
            return
        produced = {"artifact": _file_digest(model)}
        for kind, subject in forecasts.items():
            prefix = f"{p['workdir']}/fc_{kind}"
            if not _run_cli(["forecast", "--model", model, *subject,
                             "--out", prefix], self.checks, latencies):
                continue
            produced[kind] = _file_digest(f"{prefix}_summary.csv",
                                          f"{prefix}_schedule.csv")
            e0 = _read_summary_e0(f"{prefix}_summary.csv")
            if not _all_finite(e0):
                self.checks.fail(f"{kind} forecast e0 is not finite")
            self.outputs.setdefault("forecast_e0", {}).setdefault(kind, e0)
        if self.first is None:
            self.first = produced
            return
        for key, digest in produced.items():
            if digest != self.first.get(key, digest):
                self.checks.fail(f"rerun changed the {key} output bytes")

    def finish(self):
        """Artifact size, and a load-save round trip of the fit."""
        from mortflow.artifact import load_model, save_model
        if self.first is None:  # every fit failed
            return {"artifact_kb": 0.0}
        model = f"{self.plan['workdir']}/model.json"
        path = f"{self.plan['workdir']}/resaved.json"
        save_model(load_model(model), path)
        if _file_digest(path) != self.first["artifact"]:
            self.checks.fail("load + save changed the artifact bytes")
        return {"artifact_kb": os.path.getsize(model) / 1000.0}


class CvTune:
    """``mortflow cv --strict-loco --model`` on the demo-shape panel."""

    # cycle times vary most here on a shared machine: a median of 4
    min_cycles = 4

    OUTPUTS = ("_grid.csv", "_records.csv", "_metrics.json")

    def __init__(self, plan, checks):
        self.plan = plan
        self.checks = checks
        self.first = None
        self.outputs = {}
        self.pristine = _read_bytes(plan["files"]["model"])

    def setup(self):
        pass

    def cycle(self, latencies):
        p = self.plan
        model = f"{p['workdir']}/model.json"
        prefix = f"{p['workdir']}/cv"
        with open(model, "wb") as fh:  # every cycle starts uncalibrated
            fh.write(self.pristine)
        argv = ["cv", "--input", p["files"]["panel"], "--strict-loco",
                "--model", model, "--out", prefix, *p["cv_args"]]
        if not _run_cli(argv, self.checks, latencies):
            return
        produced = {s: _file_digest(prefix + s) for s in self.OUTPUTS}
        produced["artifact"] = _file_digest(model)
        with open(prefix + "_records.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        with open(prefix + "_metrics.json", encoding="utf-8") as fh:
            metrics = json.load(fh)
        mae = metrics["report"]["e0"]["mae"]
        if not (_all_finite([float(r["e0_hat"]) for r in records])
                and _all_finite([mae])):
            self.checks.fail("cv e0 is not finite")
        if self.first is None:
            self.first = produced
            with open(prefix + "_grid.csv", newline="") as fh:
                grid = [{"w": float(r["w"]), "tau": float(r["tau"]),
                         "mae": float(r["mae"]), "n": int(r["n"])}
                        for r in csv.DictReader(fh)]
            self.outputs = {"grid": grid, "records": len(records),
                            "cv_e0_mae": mae}
            return
        for key, digest in produced.items():
            if digest != self.first[key]:
                self.checks.fail(f"rerun changed the cv{key} bytes")

    def finish(self):
        if self.first is None:  # every cv run failed
            return {"artifact_kb": 0.0}
        model = f"{self.plan['workdir']}/model.json"
        return {"artifact_kb": os.path.getsize(model) / 1000.0}


class ForecastServe:
    """Seeded forecast requests against a loaded production artifact."""

    min_cycles = 3

    def __init__(self, plan, checks):
        from mortflow.data import tensor_from_csv
        self.plan = plan
        self.checks = checks
        self.outputs = {"in_panel": [], "tier2": [], "tier1": []}
        self.heldout = tensor_from_csv(plan["files"]["heldout"])
        e0 = {}
        with open(plan["files"]["heldout_e0"], newline="") as fh:
            for row in csv.DictReader(fh):
                e0.setdefault(row["country"], []).append(
                    (int(row["year"]), float(row["e0"])))
        self.e0 = e0
        self.rng = np.random.default_rng([plan["seed"], 1])
        self.first_by_country = {}
        self.kept = {"tier1": [], "tier2": []}
        self.counts = {"in_panel": 0, "tier1": 0, "tier2": 0}
        self.distinct = {"in_panel": set(), "tier1": set(), "tier2": set()}
        origins = self.heldout_origins()
        self.tier2_pool = self._pool(origins)
        self.tier1_pool = self._pool(origins)

    def heldout_origins(self):
        """(country index, time index) entries with enough history.

        Sorted by the number of observed years up to the origin.
        """
        out = []
        min_history = self.plan["min_history"]
        for c in range(len(self.heldout.countries)):
            obs = np.flatnonzero(self.heldout.mask[c])
            out.extend((k + 1, c, int(t)) for k, t in enumerate(obs)
                       if k + 1 >= min_history)
        return [(c, t) for _, c, t in sorted(out)]

    def _pool(self, entries):
        """Endless draw, stratified over the sorted entries.

        The entries are cut into ``STRATA`` groups of neighbours.  Each
        round draws one entry from every group, in a seeded order, and a
        group is drawn without replacement until it is exhausted.  So
        every run serves each cost level in the same share, and the
        latency tail is made of the same mix of requests on every run.
        """
        if not entries:
            raise ValueError("no held-out origin has enough history")
        groups = np.array_split(np.arange(len(entries)),
                                min(STRATA, len(entries)))
        queues = [[] for _ in groups]
        while True:
            for g in self.rng.permutation(len(groups)):
                if not queues[g]:
                    queues[g] = list(self.rng.permutation(groups[g]))
                yield entries[queues[g].pop()]

    def setup(self):
        from mortflow.artifact import load_model
        self.fitted = load_model(self.plan["files"]["model"])
        self.countries = self.fitted.model.countries

    def _request(self, kind, key):
        from mortflow.evaluation import entry_state
        from mortflow.forecast import tier1_state
        h = self.plan["horizon"]
        if kind == "in_panel":
            return self.fitted.forecast(key, horizon=h)
        c, t = key
        if kind == "tier2":
            state = entry_state(self.fitted, self.heldout, c, t)
        else:
            country = self.heldout.countries[c]
            year = int(self.heldout.years[t])
            window = [(y, v) for y, v in self.e0[country] if y <= year]
            window = window[-self.plan["tier1_years"]:]
            state = tier1_state(self.fitted.flowfield,
                                [y for y, _ in window],
                                [v for _, v in window], country=country)
        return self.fitted.forecast_state(state, horizon=h)

    def _batch(self):
        """One batch: fixed tier counts in a seeded order."""
        n = self.plan["batch"]
        n1 = round(TIER1_SHARE * n)
        n2 = round(TIER2_SHARE * n)
        kinds = ["tier1"] * n1 + ["tier2"] * n2 + ["in_panel"] * (n - n1 - n2)
        for i in self.rng.permutation(n):
            kind = kinds[i]
            if kind == "tier1":
                yield kind, next(self.tier1_pool)
            elif kind == "tier2":
                yield kind, next(self.tier2_pool)
            else:
                yield kind, self.countries[
                    int(self.rng.integers(len(self.countries)))]

    def cycle(self, latencies):
        for kind, key in self._batch():
            self.checks.attempted += 1
            self.counts[kind] += 1
            self.distinct[kind].add(key)
            start = time.perf_counter()
            try:
                result = self._request(kind, key)
            except Exception:
                latencies.append(time.perf_counter() - start)
                self.checks.fail(f"{kind} {key}: "
                                 + traceback.format_exc(limit=3))
                continue
            latencies.append(time.perf_counter() - start)
            self._check(kind, key, result)

    def _check(self, kind, key, result):
        e0 = result.e0_avg
        if not _all_finite(e0.tolist()):
            self.checks.fail(f"{kind} {key}: e0 is not finite")
            return
        kept = self.outputs[kind]
        if len(kept) < REFERENCE_REQUESTS:
            kept.append(e0.tolist())
        if kind == "in_panel":
            digest = _digest(result)
            if self.first_by_country.setdefault(key, digest) != digest:
                self.checks.fail(f"repeat forecast of {key} changed")
        elif len(self.kept[kind]) < REPLAYED:
            self.kept[kind].append((key, _digest(result)))

    def finish(self):
        """Replay kept tier requests, untimed, and compare bit for bit."""
        for kind, kept in self.kept.items():
            for key, digest in kept:
                if _digest(self._request(kind, key)) != digest:
                    self.checks.fail(f"rerun of {kind} {key} changed")
        repeats = {kind: (1.0 - len(self.distinct[kind]) / n if n else 0.0)
                   for kind, n in self.counts.items()}
        return {"artifact_kb":
                os.path.getsize(self.plan["files"]["model"]) / 1000.0,
                "requests_by_kind": self.counts,
                "repeat_share": repeats}


def _digest(result):
    """Bit-exact fingerprint of a forecast's e0 path and schedules.

    The checks keep this in place of the result.  Holding on to the
    results themselves (one per country plus the replayed tier
    requests) cost every later request about 1,800 minor page faults
    and made in-panel requests about 1.5 times as slow; a server that
    returns its results holds none of them.
    """
    h = hashlib.sha256()
    for a in (result.e0_avg, result.schedules):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a))
    return h.digest()


WORKLOADS = {"panel_refit": PanelRefit, "cv_tune": CvTune,
             "forecast_serve": ForecastServe}


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import mortflow.cli  # noqa: F401  (loads every module before tracing)

    checks = Checks()
    workload = WORKLOADS[plan["workload"]](plan, checks)
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    workload.setup()
    mark = tracer.mark() if tracer else None

    latencies, cycles, cycle_requests = [], [], []
    start = time.perf_counter()
    while (len(cycles) < workload.min_cycles
           or len(latencies) < plan.get("min_requests", 0)
           or time.perf_counter() - start < plan["seconds"]):
        c0, n0 = time.perf_counter(), len(latencies)
        workload.cycle(latencies)
        cycles.append(time.perf_counter() - c0)
        cycle_requests.append(len(latencies) - n0)
    if tracer is not None:
        tracer.uninstall()

    result = {"cycles": cycles, "cycle_requests": cycle_requests,
              "latencies": latencies}
    result.update(workload.finish())
    result.update(attempted=checks.attempted, failed=checks.failed,
                  messages=checks.messages, outputs=workload.outputs,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    if tracer is not None:
        tracer.write(plan["spans_out"])
        result["trace"] = tracer.per_cycle(mark, len(cycles))
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
