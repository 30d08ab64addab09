"""End-to-end acceptance checks, one per release criterion.

Each test states a property of the assembled system and measures it at
desk scale: factorization exactness, kernel and tail geometry, dynamics
recovery on generated worlds, engine determinism, life-table accuracy,
cross-validation self-consistency, interval calibration, metric
identities, external-entry round trips, and artifact stability.  Run
with ``pytest -v`` to get one pass/fail line per criterion.
"""

import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt

from mortflow.artifact import load_model, model_to_dict, save_model
from mortflow.convergence import compute_deviations, pooled_autocorr
from mortflow.data import MortalityTensor
from mortflow.evaluation import (CVConfig, CVRecords, calibrate_pi,
                                 grid_search, metric_report, run_loco_cv)
from mortflow.forecast import ForecastConfig, jumpoff_weight, run_forecast, \
    tier2_state
from mortflow.lifetable import life_table_e0
from mortflow.pca import fit_core_pca, inverse, scores
from mortflow.pipeline import FitConfig, fit_basis, fit_dynamics, fit_model
from mortflow.smoothing import EraKernel, ExtendedFn, SmoothFn, era_weights
from mortflow.synth import SyntheticSpec, generate
from mortflow.tucker import (effective_core, full_reconstruction, hosvd,
                             project_schedule, reconstruct_schedule)


def random_tensor(seed, shape=(2, 8, 5, 12)):
    rng = np.random.default_rng(seed)
    _, n_ages, n_countries, n_years = shape
    return MortalityTensor(values=rng.normal(size=shape),
                           mask=np.ones((n_countries, n_years), dtype=bool),
                           countries=tuple(f"C{i}" for i in range(n_countries)),
                           years=np.arange(2000, 2000 + n_years),
                           ages=np.arange(n_ages))


def test_criterion_01_hosvd_exactness():
    """Full-rank factorization reproduces the raw tensor almost exactly."""
    tensor = random_tensor(1)
    t0 = time.perf_counter()
    model = hosvd(tensor, (2, 8, 5, 12))
    elapsed = time.perf_counter() - t0
    recon = full_reconstruction(model)
    rel = np.linalg.norm(recon - tensor.values) / np.linalg.norm(tensor.values)
    defect = max(float(np.abs(f.T @ f - np.eye(f.shape[1])).max())
                 for f in model.factors)
    print(f"relative error {rel:.2e}, orthonormality defect {defect:.2e}, "
          f"{elapsed * 1e3:.1f} ms")
    assert rel < 1e-8
    assert defect < 1e-10
    assert elapsed < 1.0


def test_criterion_02_effective_core_identity():
    """Per-cell core reconstruction matches the full reconstruction slice."""
    tensor = random_tensor(2)
    worst = 0.0
    for ranks in ((2, 8, 5, 12), (2, 5, 4, 8)):
        model = hosvd(tensor, ranks)
        recon = full_reconstruction(model)
        for c in range(len(tensor.countries)):
            for t in range(tensor.years.size):
                slab = reconstruct_schedule(model, effective_core(model, c, t))
                worst = max(worst, float(np.abs(slab - recon[:, :, c, t]).max()))
    print(f"worst cell/slice gap {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_03_pca_round_trip():
    """Scores and inverse compose to identity; an exactly five-dimensional
    core cloud is fully explained by five components."""
    spec = SyntheticSpec(n_countries=6, n_ages=12, n_years=30, stagger=0,
                         obs_noise=0.0, seed=3)
    world = generate(spec)
    model = hosvd(world.tensor, (2, 12, 6, 30))
    pca = fit_core_pca(model, world.tensor.mask, n_components=5)
    ev_sum = float(pca.explained_variance.sum())

    rng = np.random.default_rng(3)
    draws = rng.normal(size=(20, 5)) * np.array([3.0, 1.0, 0.5, 0.3, 0.2])
    worst = max(float(np.abs(scores(pca, inverse(pca, s)) - s).max())
                for s in draws)
    print(f"explained-variance sum {ev_sum!r}, round-trip defect {worst:.2e}")
    assert abs(ev_sum - 1.0) <= 1e-10
    assert worst <= 1e-10


def test_criterion_04_era_kernel_points():
    """Recency weight is 1 at the origin, 1/2 one half-life back, and
    exactly 0 past the window."""
    kernel = EraKernel(origin=2000.0, tau=12.0, window=40.0)
    w = era_weights(np.array([2000.0, 1988.0, 1960.0, 1959.9, 1925.0]), kernel)
    print(f"weights {w.tolist()}")
    assert w[0] == 1.0
    assert w[1] == 0.5
    assert w[2] == 2.0 ** (-40.0 / 12.0)  # window edge still counts
    assert w[3] == 0.0
    assert w[4] == 0.0


def test_criterion_05_tail_seam_continuity():
    """Extended curves are continuous at both blend seams and exactly
    affine below the blend, with the interior finite-difference slope."""
    knots = np.linspace(0.0, 10.0, 201)
    bases = (SmoothFn(knots=knots, values=np.sin(0.7 * knots) + 0.3 * knots),
             SmoothFn(knots=knots, values=-0.4 / (1.0 + np.exp(knots - 5.0))))
    transition, delta, width = 4.0, 2.0, 3.0
    worst_seam = 0.0
    worst_affine = 0.0
    for base in bases:
        fn = ExtendedFn.build(base, transition, delta=delta, blend_width=width)
        for seam in (transition, transition - width):
            gap = abs(float(fn(seam - 1e-12)) - float(fn(seam + 1e-12)))
            worst_seam = max(worst_seam, gap)
        slope = (float(base(transition + delta)) - float(base(transition))) / delta
        below = np.array([0.99, 0.4, 0.0, -2.0, -7.0])
        line = float(base(transition)) + slope * (below - transition)
        worst_affine = max(worst_affine, float(np.abs(fn(below) - line).max()))
    print(f"worst seam gap {worst_seam:.2e}, worst affine gap {worst_affine:.2e}")
    assert worst_seam <= 1e-9
    assert worst_affine <= 1e-9


def test_criterion_06_convergence_recovery():
    """Fitted relaxation rates recover the generator's AR(1) coefficient
    across three regimes, and lag-0 pooled autocorrelation is exactly 1."""
    # the rate fit never reads lags past its own cutoff, so 25 is
    # equivalent to the default and keeps the loop inside budget
    config = FitConfig(max_lag=25)
    t0 = time.perf_counter()
    worst = 0.0
    beta0 = None
    for alpha in (0.5, 0.8, 0.95):
        for seed in range(5):
            spec = SyntheticSpec(n_countries=10, n_ages=40, n_years=200,
                                 alpha=alpha, innovation_scale=0.0,
                                 obs_noise=0.0, s1_spread=0.5, seed=seed)
            world = generate(spec)
            basis = fit_basis(world.tensor, config, clip_ranks=True)
            ff, rates = fit_dynamics(basis, config)
            worst = max(worst, max(abs(a - alpha) for a in rates.alpha_s[1:]))
            if alpha == 0.8 and seed == 0:
                dev = compute_deviations(ff, basis.series)
                beta0 = [pooled_autocorr(comp, 0) for comp in dev.structural]
                beta0.append(pooled_autocorr(dev.speed, 0))
    elapsed = time.perf_counter() - t0
    print(f"worst rate error {worst:.4f}, beta(0) {beta0}, {elapsed:.1f} s")
    assert worst < 0.02
    assert all(b == 1.0 for b in beta0)
    assert elapsed < 10.0


def test_criterion_07_engine_determinism():
    """Repeated forecasts are bit-identical, and with a fully canonical
    speed blend the country's own velocity has no influence at all."""
    spec = SyntheticSpec(n_countries=6, n_ages=16, n_years=40, stagger=3,
                         seed=5)
    world = generate(spec)
    fitted = fit_model(world.tensor, FitConfig(), clip_ranks=True)
    state = fitted.state(world.tensor.countries[0])
    config = ForecastConfig(rates=fitted.rates, w=1.0, horizon=30)
    fields = ("horizons", "years", "scores", "schedules", "e0_by_sex", "e0_avg")

    def run(st):
        return run_forecast(fitted.model, fitted.pca, fitted.flowfield, st,
                            config)

    first, second = run(state), run(state)
    for name in fields:
        assert np.array_equal(getattr(first, name), getattr(second, name))

    variants = [run(replace(state, velocity=v)) for v in (-1.0, 0.0, 1.0)]
    for other in variants[1:]:
        for name in fields:
            assert np.array_equal(getattr(variants[0], name),
                                  getattr(other, name))
    print("bit-identical across repeats and across jump-off velocities")


def test_criterion_08_jumpoff_decay():
    """Jump-off residual weight halves every two horizons."""
    w2 = jumpoff_weight(2, 2.0)
    w10 = jumpoff_weight(10, 2.0)
    print(f"w(2) {w2!r}, w(10) {w10!r}")
    assert w2 == 0.5
    assert w10 == 2.0 ** -5


def test_criterion_09_life_table_oracle():
    """Life expectancy matches a million-path cohort simulation, and the
    no-mortality and certain-infant-death cases are exact."""
    qx_rng = np.random.default_rng(42)
    sim_rng = np.random.default_rng(11)
    n_paths = 10 ** 6
    worst = 0.0
    for _ in range(3):
        qx = qx_rng.uniform(0.02, 0.30, size=40)
        alive = n_paths
        person_years = 0.0
        for a, q in enumerate(qx):
            deaths = int(sim_rng.binomial(alive, q))
            lived = 0.3 if a == 0 else 0.5
            person_years += deaths * lived + (alive - deaths)
            alive -= deaths
        worst = max(worst, abs(person_years / n_paths - life_table_e0(qx)))
    print(f"worst simulation gap {worst:.5f}")
    assert worst < 0.01
    assert life_table_e0(np.zeros(40)) == 40.0
    assert life_table_e0(np.array([1.0, 0.5, 0.2])) == 0.3


def test_criterion_10_self_consistency_cv():
    """Held-out countries from a shared flow field are forecast to well
    under half a year of e0 error, and the grid search is flat in the era
    half-life when the generator has no era structure."""
    t0 = time.perf_counter()
    cv = CVConfig(fit=FitConfig(seed=0), horizon=20, w=1.0, schedules=False,
                  origin_spacing=10, min_train=20)

    def world(seed):
        return generate(SyntheticSpec(n_countries=6, n_ages=24, n_years=70,
                                      stagger=4, obs_noise=0.003,
                                      deviation_scale=0.4,
                                      innovation_scale=1.0, s1_spread=1.0,
                                      seed=seed))

    records = run_loco_cv(world(0).tensor, cv)
    mae = float(np.mean(np.abs(records.err)))

    tables = []
    for seed in (0, 1, 2):
        result = grid_search(world(seed).tensor, config=cv)
        tables.append({(row["w"], row["tau"]): row["mae"]
                       for row in result.table})
    ws = sorted({w for w, _ in tables[0]})
    taus = sorted({t for _, t in tables[0]})
    worst_ratio = 0.0
    for w in ws:
        means = [float(np.mean([tb[(w, tau)] for tb in tables]))
                 for tau in taus]
        spread = max(means) - min(means)
        noise = float(np.mean([max(tb[(w, tau)] for tb in tables) -
                               min(tb[(w, tau)] for tb in tables)
                               for tau in taus]))
        assert spread <= 2.0 * noise
        worst_ratio = max(worst_ratio, spread / noise)
    elapsed = time.perf_counter() - t0
    print(f"strict LOCO MAE {mae:.3f} over {len(records)} records, worst "
          f"tau-spread/seed-noise ratio {worst_ratio:.2f}, {elapsed:.1f} s")
    assert mae < 0.5
    assert elapsed < 300.0


def test_criterion_11_pi_calibration_oracle():
    """Calibrating on errors that are exactly N(0, h) recovers zero bias,
    unit scale, unit kappa, and nominal coverage."""
    rng = np.random.default_rng(250)
    horizons = np.arange(1, 11)
    errs = np.concatenate([rng.normal(0.0, np.sqrt(h), size=1000)
                           for h in horizons])
    n = errs.size
    records = CVRecords(country=["X"] * n, origin=[2000] * n,
                        horizon=np.repeat(horizons, 1000), e0_hat=50.0 + errs,
                        e0_obs=np.full(n, 50.0), err=errs)
    cal = calibrate_pi(records)
    bias = np.array([cal.bias(float(h)) for h in horizons])
    errs = records.err
    hs = records.horizon.astype(float)
    half = 1.96 * cal.kappa * cal.sigma1 * np.sqrt(hs)
    coverage = float(np.mean(np.abs(errs - cal.bias(hs)) <= half))
    print(f"max |bias| {np.abs(bias).max():.4f}, sigma1 {cal.sigma1:.4f}, "
          f"kappa {cal.kappa:.4f}, coverage {coverage:.4f}")
    assert float(np.abs(bias).max()) < 0.1
    assert abs(cal.sigma1 - 1.0) < 0.1
    assert abs(cal.kappa - 1.0) < 0.1
    assert abs(coverage - 0.95) < 0.02


def _assert_all_zero(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key not in ("n", "band", "n_records"):
                _assert_all_zero(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            _assert_all_zero(value)
    elif node is not None and not isinstance(node, str):
        assert node == 0.0


def test_criterion_12_metric_identities():
    """Survivorship weighting collapses to the plain mean under uniform
    weights, reproduces the two-age worked example, and a perfect
    forecast yields an all-zero report."""
    rng = np.random.default_rng(12)
    draws = [(rng.normal(size=(2, 6)), rng.uniform(0.1, 1.0, size=(2, 6)))
             for _ in range(8)]
    recs = CVRecords(country=["A"] * 8, origin=[2000] * 8,
                     horizon=range(1, 9), e0_hat=[50.0] * 8,
                     e0_obs=[49.0] * 8, err=[1.0] * 8,
                     log_mx_err=[eps for eps, _ in draws],
                     lx_obs=[lx for _, lx in draws], excluded=[0] * 8)
    uniform = metric_report(recs, ages=np.arange(6), weights="uniform")
    assert np.isclose(uniform.log_mx["mae_lx"], uniform.log_mx["mae"],
                      rtol=1e-12)
    assert np.isclose(uniform.log_mx["bias_lx"], uniform.log_mx["bias"],
                      rtol=1e-12)

    hand = CVRecords(country=["B"], origin=[2000], horizon=[1],
                     e0_hat=[50.0], e0_obs=[50.0], err=[0.0],
                     log_mx_err=[[[0.3, 0.6], [0.3, 0.6]]],
                     lx_obs=[[[1.0, 0.5], [1.0, 0.5]]], excluded=[0])
    worked = metric_report(hand, ages=np.arange(2))
    print(f"two-age weighted MAE {worked.log_mx['mae_lx']!r}")
    # exact up to the one float division in the weighted mean
    assert abs(worked.log_mx["mae_lx"] - 0.4) < 1e-15

    perfect = CVRecords(country=["C"] * 3, origin=[2000] * 3,
                        horizon=(1, 2, 3), e0_hat=[51.25] * 3,
                        e0_obs=[51.25] * 3, err=[0.0] * 3,
                        log_mx_err=np.zeros((3, 2, 6)),
                        lx_obs=np.ones((3, 2, 6)), excluded=[0] * 3)
    report = metric_report(perfect, ages=np.arange(6))
    _assert_all_zero(report.to_dict())


def test_criterion_13_tier2_round_trip():
    """A schedule synthesized from known scores projects back to those
    scores, and a component outside the age basis lands in the jump-off
    residual unchanged."""
    spec = SyntheticSpec(n_countries=5, n_ages=18, n_years=40, stagger=0,
                         obs_noise=0.01, seed=4)
    world = generate(spec)
    fitted = fit_model(world.tensor, FitConfig(ranks=(2, 10, 4, 20)))
    model, pca = fitted.model, fitted.pca

    rng = np.random.default_rng(13)
    s_true = rng.normal(size=5) * np.array([2.0, 1.0, 0.5, 0.3, 0.2])
    clean = reconstruct_schedule(model, inverse(pca, s_true))
    recovered = scores(pca, project_schedule(model, clean))
    score_gap = float(np.abs(recovered - s_true).max())

    basis, _, _ = np.linalg.svd(model.age_factor, full_matrices=True)
    outside = basis[:, model.age_factor.shape[1]]
    injected = 0.05 * np.outer(np.array([0.7, -0.4]), outside)
    state = tier2_state(model, pca, fitted.flowfield, clean + injected,
                        origin_year=int(model.years[-1]) + 1)
    entry_gap = float(np.abs(state.scores - s_true).max())
    jump_gap = float(np.abs(state.jumpoff - injected).max())
    print(f"score gap {score_gap:.2e}, entry gap {entry_gap:.2e}, "
          f"jump-off gap {jump_gap:.2e}")
    assert score_gap <= 1e-6
    assert entry_gap <= 1e-6
    assert jump_gap <= 1e-8


def test_criterion_14_artifact_round_trip(tmp_path):
    """Saved artifacts reload field-for-field, and a fixed seed makes the
    whole fit byte-reproducible."""
    spec = SyntheticSpec(n_countries=5, n_ages=12, n_years=36, stagger=3,
                         seed=11)
    config = FitConfig(seed=7)
    paths = []
    fits = []
    for name in ("a.json", "b.json"):
        fitted = fit_model(generate(spec).tensor, config, clip_ranks=True)
        path = tmp_path / name
        save_model(fitted, path)
        paths.append(path)
        fits.append(fitted)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    fitted = fits[0]
    loaded = load_model(paths[0])
    assert model_to_dict(loaded) == model_to_dict(fitted)
    for got, want in zip(loaded.model.factors, fitted.model.factors):
        npt.assert_array_equal(got, want)
    npt.assert_array_equal(loaded.model.core, fitted.model.core)
    npt.assert_array_equal(loaded.pca.loadings, fitted.pca.loadings)
    npt.assert_array_equal(loaded.pca.g_bar, fitted.pca.g_bar)
    npt.assert_array_equal(loaded.mask, fitted.mask)
    assert loaded.rates == fitted.rates
    assert loaded.origin == fitted.origin
    assert loaded.config == fitted.config
    assert loaded.calibration is None
    print("save/load equality and byte-identical refits")
