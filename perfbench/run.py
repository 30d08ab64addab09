"""mortflow benchmark: production refit, CV tuning and forecast serving.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload panel_refit --seed 7 \\
        --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

- ``panel_refit``: ``mortflow fit`` on a production-shape CSV, then one
  ``mortflow forecast`` each for an in-panel country, a tier-1 e0 series
  and a tier-2 schedule.
- ``cv_tune``: ``mortflow cv --strict-loco --model`` on a demo-shape CSV.
- ``forecast_serve``: seeded in-panel, tier-2 and tier-1 forecast
  requests against a loaded production-shape artifact.

The runner generates the inputs from ``--seed`` into a scratch
directory under ``.bench_work/``, times a fresh process's set-up
several times, then runs the workload in its own process
(``worker.py``) and checks its outputs.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before
it is a JSON report with the machine, the checks and the raw outputs.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# one BLAS thread: steadier than two on a shared 2-core machine, and the
# workloads are single-client closed loops
BLAS_THREADS = 1
DEFAULT_SEED = 7
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
REFERENCE_TOLERANCE = 1e-6  # years of e0 or MAE

# Panel shapes.  "full" is what the benchmark measures; "tiny" keeps the
# smoke test fast.  Held-out countries are generated with the panel and
# withheld from every fit.
SIZES = {
    "full": {
        "production": {"n_countries": 46, "n_ages": 100, "n_years": 100},
        "demo": {"n_countries": 8, "n_ages": 30, "n_years": 80},
        "heldout": 8,
        "batch": 100,
        "min_requests": 1000,
        "cv_args": [],
    },
    "tiny": {
        "production": {"n_countries": 6, "n_ages": 16, "n_years": 40,
                       "stagger": 3},
        "demo": {"n_countries": 5, "n_ages": 12, "n_years": 45,
                 "stagger": 3},
        "heldout": 2,
        "batch": 40,
        "min_requests": 0,
        "cv_args": ["--grid-w", "0.5,1.0", "--grid-tau", "10,20",
                    "--horizon", "20"],
    },
}
HORIZON = 50
TIER1_YEARS = 10
MIN_HISTORY = 10  # observed years before a held-out entry's origin

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "request_ms_p50": "ms", "request_ms_p99": "ms",
    "requests_per_s": "1/s", "artifact_kb": "kB",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("panel_refit", "cv_tune", "forecast_serve"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="panel sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def checkout_env():
    """Environment for child processes: this checkout's src, capped BLAS."""
    if not (SRC / "mortflow" / "__init__.py").is_file():
        fail(f"no mortflow sources under {SRC}; run from a full checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def _subset(world, keep):
    """The world restricted to the country indices in ``keep``."""
    from mortflow.data import MortalityTensor
    t = world.tensor
    tensor = MortalityTensor(values=t.values[:, :, keep], mask=t.mask[keep],
                             countries=tuple(t.countries[c] for c in keep),
                             years=t.years, ages=t.ages)
    return replace(world, tensor=tensor)


def _write_e0(world, path, with_country):
    """Observed e0 per country-year, as a year,e0 (or country,...) CSV."""
    import numpy as np
    from mortflow.lifetable import e0_by_sex
    t = world.tensor
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("country,year,e0\n" if with_country else "year,e0\n")
        for c, country in enumerate(t.countries):
            obs = np.flatnonzero(t.mask[c])
            if not with_country:
                obs = obs[-TIER1_YEARS:]
            e0 = e0_by_sex(np.moveaxis(t.values[:, :, c, obs], -1, 0))
            for year, value in zip(t.years[obs], e0.mean(axis=-1)):
                prefix = f"{country}," if with_country else ""
                fh.write(f"{prefix}{int(year)},{float(value)!r}\n")


def make_inputs(workload, seed, size, workdir):
    """Generate the workload's input files; returns the plan additions."""
    from mortflow.artifact import save_model
    from mortflow.data import tensor_from_csv
    from mortflow.pipeline import FitConfig, fit_model
    from mortflow.synth import SyntheticSpec, generate, write_csv
    sizes = SIZES[size]
    files = {}
    plan = {"files": files}
    if workload == "cv_tune":
        world = generate(SyntheticSpec(**sizes["demo"], seed=seed))
        files["panel"] = str(workdir / "demo.csv")
        files["model"] = str(workdir / "demo_model.json")
        write_csv(world, files["panel"])
        # what `mortflow fit --input demo.csv` saves
        save_model(fit_model(tensor_from_csv(files["panel"]), FitConfig()),
                   files["model"])
        plan["cv_args"] = sizes["cv_args"]
        return plan

    n_panel = sizes["production"]["n_countries"]
    n_heldout = 1 if workload == "panel_refit" else sizes["heldout"]
    spec = dict(sizes["production"], n_countries=n_panel + n_heldout)
    world = generate(SyntheticSpec(**spec, seed=seed))
    panel = _subset(world, list(range(n_panel)))
    heldout = _subset(world, list(range(n_panel, n_panel + n_heldout)))
    if workload == "panel_refit":
        import numpy as np
        rng = np.random.default_rng([seed, 2])
        plan["country"] = panel.tensor.countries[
            int(rng.integers(n_panel))]
        files["panel"] = str(workdir / "panel.csv")
        files["tier2"] = str(workdir / "tier2.csv")
        files["tier1_e0"] = str(workdir / "tier1_e0.csv")
        write_csv(panel, files["panel"])
        write_csv(heldout, files["tier2"])
        _write_e0(heldout, files["tier1_e0"], with_country=False)
        return plan

    # forecast_serve: fit and save during prep; the worker only loads it
    fitted = fit_model(panel.tensor, FitConfig())
    files["model"] = str(workdir / "model.json")
    save_model(fitted, files["model"])
    save_model(fitted, workdir / "model_again.json")
    plan["identical_saves"] = (
        (workdir / "model_again.json").read_bytes()
        == Path(files["model"]).read_bytes())
    files["heldout"] = str(workdir / "heldout.csv")
    files["heldout_e0"] = str(workdir / "heldout_e0.csv")
    write_csv(heldout, files["heldout"])
    _write_e0(heldout, files["heldout_e0"], with_country=True)
    plan.update(batch=sizes["batch"], min_requests=sizes["min_requests"],
                min_history=MIN_HISTORY, horizon=HORIZON,
                tier1_years=TIER1_YEARS)
    return plan


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

SETUP_CODE = """\
import sys
import mortflow
if len(sys.argv) > 1:
    mortflow.load_model(sys.argv[1])
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def time_setup(env, model_path):
    """Median time from process launch to 'ready' over fresh processes."""
    argv = [sys.executable, "-c", SETUP_CODE]
    if model_path is not None:
        argv.append(model_path)
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one warms file caches
        start = time.perf_counter()
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        if proc.returncode != 0 or line.strip() != b"ready":
            fail("the set-up process failed")
        if i:
            times.append(elapsed)
    return statistics.median(times), times


def run_worker(plan, env, workdir):
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the worker did not finish in {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"the worker exited {proc.returncode}")
    return json.loads(Path(plan["result"]).read_text(encoding="utf-8"))


def tail_percentile(samples, target=99.0):
    """The target percentile if at least 10 samples lie beyond it.

    Otherwise the highest of 95, 90 and 75 that has 10 beyond it, and
    the median when none has: with fewer than 20 samples the tail is
    not measured.  Returns (value, label).
    """
    import numpy as np
    for q in (target, 95.0, 90.0, 75.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            return float(np.percentile(samples, q)), f"p{q:g}"
    return float(np.percentile(samples, 50.0)), "p50"


def compare_reference(workload, size, outputs):
    """Mismatches against the stored default-seed outputs."""
    path = HERE / "reference.json"
    stored = json.loads(path.read_text(encoding="utf-8")).get(
        size, {}).get(workload)
    if stored is None:
        return [f"no reference outputs stored for {size} {workload}"]
    bad = []

    def close(a, b, where):
        if isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                bad.append(f"{where}: length {len(b)} != {len(a)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                close(x, y, f"{where}[{i}]")
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                bad.append(f"{where}: keys differ")
                return
            for k in a:
                close(a[k], b[k], f"{where}.{k}")
        elif isinstance(a, float) or isinstance(b, float):
            if not abs(float(a) - float(b)) <= REFERENCE_TOLERANCE:
                bad.append(f"{where}: {b!r} != {a!r}")
        elif a != b:
            bad.append(f"{where}: {b!r} != {a!r}")

    close(stored, outputs, workload)
    return bad


def machine():
    import numpy as np
    import scipy
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "mortflow").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines,
    }


def main(argv=None):
    args = parse_args(argv)
    env = checkout_env()
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS",
                                           "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    import mortflow
    if Path(mortflow.__file__).resolve().parent != SRC / "mortflow":
        fail(f"imported mortflow from {mortflow.__file__}, not {SRC}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=ROOT / ".bench_work"))
    try:
        plan = make_inputs(args.workload, args.seed, args.size, workdir)
        prep_ok = plan.pop("identical_saves", True)
        setup_s, setup_samples = time_setup(
            env, plan["files"]["model"]
            if args.workload == "forecast_serve" else None)
        spans_out = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
        if args.trace:
            spans_out.parent.mkdir(exist_ok=True)
        plan.update(workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, src=str(SRC),
                    workdir=str(workdir), result=str(workdir / "result.json"),
                    spans_out=str(spans_out))
        result = run_worker(plan, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = result["failed"]
    messages = list(result["messages"])
    if not prep_ok:
        failed += 1
        messages.append("two saves of one fit differ")
    if args.seed == DEFAULT_SEED:
        mismatches = compare_reference(args.workload, args.size,
                                       result["outputs"])
        if mismatches:
            failed += 1
            messages.extend(mismatches[:10])

    latencies_ms = [s * 1000.0 for s in result["latencies"]]
    p99, p99_label = tail_percentile(latencies_ms)
    if args.trace:
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in result["trace"].items()}
        metrics["trace.wall_s"] = {
            "value": statistics.median(result["cycles"]), "unit": "s"}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(result["cycles"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "request_ms_p50": statistics.median(latencies_ms),
            "request_ms_p99": p99,
            "requests_per_s": statistics.median(
                [n / t for n, t in zip(result["cycle_requests"],
                                       result["cycles"])]),
            "artifact_kb": result["artifact_kb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(),
        "cycles_s": result["cycles"],
        "requests": len(latencies_ms),
        "request_ms_p99_is": p99_label,
        "setup_s_samples": setup_samples,
        "error_rate": failed / max(result["attempted"], 1),
        "reference_checked": args.seed == DEFAULT_SEED,
        "failures": messages,
        "outputs": result["outputs"],
    }
    for key in ("requests_by_kind", "repeat_share"):
        if key in result:
            report[key] = result[key]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0,
                      "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
