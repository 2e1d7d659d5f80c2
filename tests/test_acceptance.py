"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with -s or check captured output on failure).

The expensive fixtures (trained networks at D=64) are module-scoped and
built on first use; `pytest tests/test_acceptance.py -v -s` runs the
whole gate and takes on the order of ten minutes on two CPU cores.
"""

import time

import numpy as np
import pytest

from flowlag.cli import EXIT_OK, EXIT_OVERSHOOT, main as cli_main
from flowlag.datasets import GaussianData
from flowlag.diagnostics import (
    MomentStats,
    frechet_gaussian,
    gaussian_reference,
    norm_profile,
    split_half_fld,
    sqrtm_psd,
    track_fld,
)
from flowlag.gaussian_oracle import (
    OracleField,
    conditional_pair_sample,
    cross_term_expectation,
    jensen_gap,
    oracle_velocity,
    rho_statistics,
    typical_shell_point,
    velocity_coefficient,
)
from flowlag.interpolant import PATH_KINDS, LinearPath, make_interpolant
from flowlag.nn import Mlp
from flowlag.reporting import read_csv
from flowlag.rng import rng_for
from flowlag.solver import (
    IDENTITY_SCHEDULE,
    ScaleSchedule,
    SolverSpec,
    calibrate_s_start,
    euler_step,
    integrate,
    scaled_velocity,
)
from flowlag.training import TrainConfig, mafm_loss, train

SEED = 0
DIM = 64
CHECKPOINTS = (0.2, 0.4, 0.6, 0.8, 1.0)

# criterion 11/12 use a data std of 2: the criterion leaves the Gaussian
# target's spread free, and the symmetric std=1 choice is degenerate for
# the trigonometric path (its optimal velocity vanishes identically, so
# there is no transport and no lag to measure).
LAG_DATA_STD = 2.0


def report(num, name, clauses):
    """Print one line per criterion and fail the test on any false clause."""
    ok = all(flag for _, flag in clauses)
    detail = "; ".join(f"{desc}: {'ok' if flag else 'VIOLATED'}" for desc, flag in clauses)
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} failed -- {detail}"


# -- trained-network fixtures -------------------------------------------------


def _train_cfg(**kw):
    base = dict(dataset={"kind": "gaussian", "dim": DIM}, batch_size=256,
                steps=20_000, hidden=(256, 256, 256), log_every=200, seed=SEED,
                precision="float32")
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def fm_sym():
    """Plain regression net on the symmetric std=1 Gaussian (criteria 8, 9)."""
    return train(_train_cfg())


@pytest.fixture(scope="module")
def mafm_sym():
    """Magnitude-aware counterpart with the default penalty (criterion 9)."""
    return train(_train_cfg(loss="mafm", lam0=0.2))


@pytest.fixture(scope="module")
def lag_nets(tmp_path_factory):
    """One trained net per path on the std=2 Gaussian (criteria 11, 12).

    The linear net keeps its artifact directory so the harness criterion
    can run through the real CLI checkpoint path.
    """
    out = tmp_path_factory.mktemp("lag_ckpts")
    nets = {}
    for kind in PATH_KINDS:
        cfg = _train_cfg(dataset={"kind": "gaussian", "dim": DIM, "std": LAG_DATA_STD},
                         path=kind, steps=10_000)
        nets[kind] = train(cfg, out_dir=out / kind)
    return nets


# -- criteria -----------------------------------------------------------------


def test_criterion_01_jensen_gap_strictness():
    spec = GaussianData(dim=DIM, std=1.0)
    interp = LinearPath()
    rng = rng_for(SEED, "acceptance:jensen")
    t0 = time.perf_counter()
    clauses = []
    for t in np.arange(0.1, 0.95, 0.1):
        x = typical_shell_point(spec, interp, t)
        res = jensen_gap(spec, interp, x, float(t), 100_000, rng)
        clauses.append((f"t={t:.1f} gap>{3 * res.mc_stderr:.3g}", res.deficit_confirmed))
    elapsed = time.perf_counter() - t0
    clauses.append((f"runtime {elapsed:.1f}s < 10s", elapsed < 10.0))
    report(1, "learned energy strictly undershoots the target", clauses)


def test_criterion_02_boundary_limits():
    clauses = []
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal(16)
    for kind in PATH_KINDS:
        interp = make_interpolant(kind)
        for data_std in (0.5, 1.0, 2.0):
            spec = GaussianData(dim=16, std=data_std)
            for t, idx, name in ((0.0, 3, "d_sigma(0)"), (1.0, 2, "d_alpha(1)")):
                expected = float(interp.coefficients(t)[idx]) * x
                got = oracle_velocity(spec, interp, x, t)
                err = float(np.linalg.norm(got - expected))
                scale = float(np.linalg.norm(expected))
                ok = err == 0.0 or (scale > 0 and err <= 1e-12 * scale)
                clauses.append((f"{kind} std={data_std} v*(x,{t:g})={name} x", ok))
    report(2, "boundary identities exact for all three paths", clauses)


def test_criterion_03_cross_term_identity():
    spec = GaussianData(dim=16, std=1.0)
    interp = LinearPath()
    rng = rng_for(SEED, "acceptance:cross-term")
    clauses = []
    for t in (0.25, 0.5, 0.75):
        x = rng.standard_normal(16) * 1.1
        closed = cross_term_expectation(spec, interp, x, t)
        x0, x1 = conditional_pair_sample(spec, interp, x, t, 200_000, rng)
        inner = np.einsum("ij,ij->i", x0, x1)
        se = float(inner.std(ddof=1) / np.sqrt(len(inner)))
        clauses.append((f"t={t} |mc-closed|<3se", abs(float(inner.mean()) - closed) < 3 * se))
    for t in (0.0, 1.0):
        val = cross_term_expectation(spec, interp, rng.standard_normal(16), t)
        clauses.append((f"t={t:g} exactly zero", val == 0.0))
    report(3, "conditional cross-term closed form matches exact MC", clauses)


def _rho_quantile(dim, q):
    """Exact q-quantile of rho for data_std=1, and rho's density there.

    rho = |2B - 1| with B ~ Beta(D/2, D/2), so u = 2B - 1 has a density
    proportional to (1 - u^2)^(D/2 - 1) on [-1, 1].  The CDF of |u| is
    integrated by the trapezoid rule on a grid of step 1e-6.
    """
    u = np.linspace(0.0, 1.0, 1_000_000, endpoint=False)
    dens = np.exp((dim / 2 - 1) * np.log1p(-u * u))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(u))])
    r = float(np.interp(q * cdf[-1], cdf, u))
    return r, float(np.interp(r, u, dens)) / cdf[-1]


def test_criterion_04_rho_concentration():
    n_pairs = 50_000
    t0 = time.perf_counter()
    hi = rho_statistics(4096, n_pairs, data_std=1.0, seed=SEED)
    lo = rho_statistics(1024, n_pairs, data_std=1.0, seed=SEED)
    elapsed = time.perf_counter() - t0
    ratio = lo.mean / hi.mean
    # The source paper's p99 < 0.04 is measured on real latents.  For this
    # std=1 surrogate the population p99 at D=4096 is 0.0402335, above
    # that figure, so the sample p99 is held to the exact quantile within
    # 3 standard errors of the order statistic, sqrt(q(1-q)/n) / f(q_99).
    q99, density = _rho_quantile(4096, 0.99)
    se = float(np.sqrt(0.99 * 0.01 / n_pairs)) / density
    clauses = [
        (f"mean {hi.mean:.5f} in [0.0115, 0.0135]", 0.0115 <= hi.mean <= 0.0135),
        (f"p99 {hi.p99:.5f} within 3se ({3 * se:.1e}) of exact {q99:.5f} "
         f"(real-latent reference 0.04)", abs(hi.p99 - q99) <= 3 * se),
        (f"max {hi.max:.5f} < 0.075", hi.max < 0.075),
        (f"quadrupling D halves mean (ratio {ratio:.3f})", abs(ratio - 2.0) <= 0.2),
        (f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0),
    ]
    report(4, "relative cross-term concentration", clauses)


def test_criterion_05_schedule_calibration():
    table = [("linear", 1.10), ("quad-in", 1.075), ("quad-out", 1.15), ("cosine", 1.10)]
    clauses = []
    base = ScaleSchedule("linear", 1.10, 1.0)
    clauses.append((f"area(linear,1.10->1.0)={base.area():.10f}",
                    abs(base.area() - 1.05) <= 1e-9))
    t = np.linspace(0.0, 1.0, 200_001)
    for shape, expected in table:
        got = calibrate_s_start(shape, s_end=1.0, target_area=1.05)
        sched = ScaleSchedule(shape, got, 1.0)
        quad = float(np.trapezoid(sched.gamma(t), t))
        clauses.append((f"{shape}: s_start={got:.6g} (analytic)", abs(got - expected) <= 1e-9))
        clauses.append((f"{shape}: quadrature area", abs(quad - 1.05) <= 1e-6))
    report(5, "schedule area calibration", clauses)


def test_criterion_06_ssc_identity_and_scaling():
    clauses = _ssc_clauses(LinearPath(), data_std=1.0)
    report(6, "identity schedule is bitwise inert; scaling is literal", clauses)


def _ssc_clauses(interp, data_std):
    spec = GaussianData(dim=16, std=data_std)
    field = OracleField(spec, interp)
    clauses = []
    unit = ScaleSchedule("linear", 1.0, 1.0)
    for method in ("euler", "heun", "euler-maruyama"):
        a = integrate(field, SolverSpec(method=method, nfe=25, schedule=unit,
                                        checkpoints=CHECKPOINTS),
                      dim=16, n_particles=128, seed=SEED, interp=interp)
        b = integrate(field, SolverSpec(method=method, nfe=25, schedule=IDENTITY_SCHEDULE,
                                        checkpoints=CHECKPOINTS),
                      dim=16, n_particles=128, seed=SEED, interp=interp)
        same = all(np.array_equal(sa, sb) for sa, sb in zip(a.states, b.states))
        clauses.append((f"{interp.kind}/{method} bitwise identity", same))
    sched = ScaleSchedule("linear", 1.1, 1.0)
    rng = np.random.default_rng(SEED + 3)
    x = rng.standard_normal((64, 16))
    scaling_ok = step_ok = True
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        v, g = scaled_velocity(field, sched, x, t)
        v_hat = g * v
        # a stage's checked call gives the field's output and gamma(t); the
        # correction is their literal product, and the norm identity then
        # holds to the rounding of the norm reduction itself
        if not (np.array_equal(v, field(x, t)) and g == float(sched.gamma(t))):
            scaling_ok = False
        # the solver applies gamma itself, block by block: the step that
        # sampling runs must carry the same literal product
        if not np.array_equal(euler_step(field, sched, x.copy(), t, 0.04), x + (g * v) * 0.04):
            step_ok = False
        rel = np.abs(np.linalg.norm(v_hat, axis=1) - g * np.linalg.norm(v, axis=1))
        rel /= np.maximum(g * np.linalg.norm(v, axis=1), 1e-300)
        if rel.max() > 1e-14:
            scaling_ok = False
    clauses.append((f"{interp.kind} per-call norm scaling", scaling_ok))
    clauses.append((f"{interp.kind} euler step uses the literal product", step_ok))
    return clauses


def test_criterion_07_gradient_checks():
    net = Mlp.create(dim=4, hidden=(8, 6), rng=np.random.default_rng(SEED + 4),
                     n_time_pairs=3)
    rng = np.random.default_rng(SEED + 5)
    x0 = rng.standard_normal((10, 4))
    x1 = rng.standard_normal((10, 4))
    t = rng.uniform(0, 1, 10)
    interp = LinearPath()
    clauses = []
    for label, loss_fn in (
        ("fm", lambda: mafm_loss(net, interp, x0, x1, t, lam0=0.0)),
        ("mafm", lambda: mafm_loss(net, interp, x0, x1, t, lam0=0.2)),
    ):
        _, grads, _ = loss_fn()
        keys = sorted(grads)
        worst = 0.0
        for probe in range(20):
            key = keys[probe % len(keys)]
            p = net.parameters()[key]
            idx = int(rng.integers(p.size))
            eps = 1e-6
            orig = p.flat[idx]
            p.flat[idx] = orig + eps
            up = loss_fn()[0]
            p.flat[idx] = orig - eps
            down = loss_fn()[0]
            p.flat[idx] = orig
            fd = (up - down) / (2 * eps)
            rel = abs(grads[key].flat[idx] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
        clauses.append((f"{label} worst rel err {worst:.2e} < 1e-4", worst < 1e-4))
    report(7, "loss gradients match central differences", clauses)


def test_criterion_08_deficit_signature(fm_sym):
    interp = LinearPath()
    ds = GaussianData(dim=DIM, std=1.0)
    grid = np.linspace(0.0, 1.0, 21)
    prof = norm_profile(fm_sym.net.forward, interp, ds, grid, n_samples=8192,
                        seed=SEED + 6)
    # the exact MSE optimum on the same samples (same seed)
    opt = norm_profile(OracleField(GaussianData(dim=DIM, std=1.0), interp), interp,
                       ds, grid, n_samples=8192, seed=SEED + 6)
    target = np.sqrt(2 * DIM)
    interior = prof.mean[1:-1]
    r0 = prof.mean[0] / np.sqrt(DIM)
    r1 = prof.mean[-1] / np.sqrt(DIM)
    clauses = [
        (f"max interior norm {interior.max():.3f} < 0.98*sqrt(2D)={0.98 * target:.3f}",
         bool(np.all(interior < target * (1 - 0.02)))),
    ]
    # Early and late speeds follow the exact optimum.  For std=1 data its
    # profile |c(t)| s_t sqrt(D) is symmetric about t=0.5, so the optimum
    # itself does not satisfy norm(0.9) < norm(0.1): on these samples it
    # gives 7.0430 against 7.0382.
    for t in (0.1, 0.9):
        i = int(np.argmin(np.abs(grid - t)))
        rel = prof.mean[i] / opt.mean[i]
        clauses.append((f"norm({t:g})={prof.mean[i]:.4f} within 5% of the optimum's "
                        f"{opt.mean[i]:.4f} (ratio {rel:.4f})", abs(rel - 1.0) <= 0.05))
    clauses += [
        (f"start ratio {r0:.3f} in [0.85, 1.15]", 0.85 <= r0 <= 1.15),
        (f"end ratio {r1:.3f} in [0.85, 1.15]", 0.85 <= r1 <= 1.15),
    ]
    report(8, "trained net shows the magnitude-deficit profile", clauses)


def test_criterion_09_mafm_effect(fm_sym, mafm_sym):
    interp = LinearPath()
    ds = GaussianData(dim=DIM, std=1.0)
    grid = np.linspace(0.0, 0.3, 7)
    prof_fm = norm_profile(fm_sym.net.forward, interp, ds, grid, n_samples=8192,
                           seed=SEED + 6)
    prof_mafm = norm_profile(mafm_sym.net.forward, interp, ds, grid, n_samples=8192,
                             seed=SEED + 6)
    early_fm = float(prof_fm.mean.mean())
    early_mafm = float(prof_mafm.mean.mean())
    fm_term_base = float(np.mean([row[1] for row in fm_sym.history[-10:]]))
    fm_term_mafm = float(np.mean([row[1] for row in mafm_sym.history[-10:]]))
    rel = abs(fm_term_mafm - fm_term_base) / fm_term_base
    clauses = [
        (f"early norm {early_mafm:.3f} > plain {early_fm:.3f}", early_mafm > early_fm),
        (f"fm-term within 10% (rel diff {rel:.3%})", rel <= 0.10),
    ]
    report(9, "magnitude supervision lifts early-time speed", clauses)


def test_criterion_10_frechet_correctness():
    clauses = []
    a = MomentStats(np.array([0.0]), np.array([[1.0]]), 0)
    b = MomentStats(np.array([1.0]), np.array([[1.0]]), 0)
    clauses.append(("1-D mean shift = 1", abs(frechet_gaussian(a, b) - 1.0) <= 1e-9))
    c = MomentStats(np.array([0.0]), np.array([[4.0]]), 0)
    clauses.append(("1-D variance gap = 1", abs(frechet_gaussian(a, c) - 1.0) <= 1e-9))
    rng = np.random.default_rng(SEED + 7)
    la, lb = rng.uniform(0.5, 3.0, 8), rng.uniform(0.5, 3.0, 8)
    mu_a, mu_b = rng.standard_normal(8), rng.standard_normal(8)
    diag = frechet_gaussian(MomentStats(mu_a, np.diag(la), 0),
                            MomentStats(mu_b, np.diag(lb), 0))
    closed = float(((mu_a - mu_b) ** 2).sum() + ((np.sqrt(la) - np.sqrt(lb)) ** 2).sum())
    clauses.append(("diagonal closed form", abs(diag - closed) <= 1e-9))
    m = rng.standard_normal((32, 32))
    m = m.T @ m
    s = sqrtm_psd(m)
    clauses.append(("sqrtm reconstruction <= 1e-8 ||M||",
                    np.linalg.norm(s @ s - m) <= 1e-8 * np.linalg.norm(m)))
    floor = split_half_fld(rng.standard_normal((8192, DIM)))
    print(f"    split-half FLD noise floor (n=8192, D={DIM}): {floor:.6f}")
    clauses.append((f"noise floor {floor:.4f} reported and positive", floor > 0.0))
    report(10, "distance functional closed forms and square root", clauses)


def test_criterion_11_integration_lag_harness(lag_nets, tmp_path):
    ckpt = lag_nets["linear"].checkpoint_path
    out = tmp_path / "sweep"
    t0 = time.perf_counter()
    code = cli_main(["lag-sweep", "--checkpoint", str(ckpt), "--nfe", "10",
                     "--s-start", "1.0,1.05,1.1,1.15,1.2", "--particles", "8192",
                     "--floor-nfe", "500", "--require-lag-ratio", "5.0",
                     "--seed", str(SEED), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    clauses = [(f"exit code {code} in (ok, overshoot-caveat)",
                code in (EXIT_OK, EXIT_OVERSHOOT))]
    header, rows = read_csv(out / "lag_sweep.csv")
    labels = {r[1] for r in rows}
    expected = {"floor", "baseline", "linear:1.05:1.0", "linear:1.1:1.0",
                "linear:1.15:1.0", "linear:1.2:1.0", "linear:1.0:1.1",
                "linear:1.05:1.05"}
    clauses.append(("sweep report complete", expected <= labels))
    terminal = {r[1]: float(r[-1]) for r in rows}
    floor_val, base_val = terminal["floor"], terminal["baseline"]
    ratio = base_val / floor_val
    clauses.append((f"lag exists: baseline {base_val:.3f} >= 5x floor {floor_val:.3f} "
                    f"({ratio:.1f}x)", ratio >= 5.0))
    best = min(v for k, v in terminal.items() if k != "floor")
    clauses.append((f"minimizing cell {best:.3f} <= baseline {base_val:.3f}",
                    best <= base_val))
    summary = (out / "summary.txt").read_text()
    if code == EXIT_OVERSHOOT:
        clauses.append(("caveat emitted on fail-soft path", "overshoot" in summary))
    else:
        clauses.append(("an s_start > 1 strictly improved", "improving s_start" in summary))
    clauses.append((f"runtime {elapsed:.0f}s < 300s", elapsed < 300.0))
    report(11, "integration-lag harness over injection scales", clauses)


def _fitted_coefficient(net, interp, t, n=4096):
    """Least-squares c-hat(t) in v_net(x, t) ~ c-hat x over the forward marginal."""
    rng = rng_for(SEED, "acceptance:coefficient-fit")
    x0 = rng.standard_normal((n, DIM))
    x1 = LAG_DATA_STD * rng.standard_normal((n, DIM))
    x = interp.sample_xt(x0, x1, np.full(n, t))
    v = np.asarray(net.forward(x, t), dtype=np.float64)
    return float(np.einsum("ij,ij->", v, x) / np.einsum("ij,ij->", x, x))


def test_criterion_12_path_robustness(lag_nets):
    clauses = []
    for kind in PATH_KINDS:
        interp = make_interpolant(kind)
        clauses.extend(_ssc_clauses(interp, data_std=LAG_DATA_STD))
    ref = gaussian_reference(DIM, std=LAG_DATA_STD)
    spec = GaussianData(dim=DIM, std=LAG_DATA_STD)
    for kind in PATH_KINDS:
        net = lag_nets[kind].net
        interp = make_interpolant(kind)

        def run(nfe):
            solver = SolverSpec(method="euler", nfe=nfe, checkpoints=CHECKPOINTS)
            return integrate(net.forward, solver, dim=DIM, n_particles=8192, seed=SEED + 8)

        fine, coarse = run(500), run(10)
        if kind == "linear":
            floor = track_fld(fine, ref, "analytic").terminal
            base = track_fld(coarse, ref, "analytic").terminal
            ratio = base / floor
            clauses.append((f"{kind}: lag {base:.3f} >= 5x floor {floor:.3f} ({ratio:.1f}x)",
                            ratio >= 5.0))
            # the span t < 0.2 where the linear-path field contracts (c < 0)
            worst = max(abs(_fitted_coefficient(net, interp, t)
                            - float(velocity_coefficient(spec, interp, t)))
                        for t in (0.0, 0.05, 0.1, 0.15, 0.2))
            clauses.append((f"{kind}: fitted c-hat(t) within 0.1 of c(t) on t <= 0.2 "
                            f"(worst {worst:.3f})", worst <= 0.1))
        # Lag against the closed form.  Under the exact field v* = c(t) x an
        # Euler step multiplies every particle by 1 + c(t_k)/N, so the nfe=10
        # run ends at g10 x0 with g10 = prod_k (1 + c(k/10)/10), while a fine
        # run ends near sd x0: the exact field falls short by (sd - g10) times
        # the RMS of x0 (about 1) in RMS per coordinate.  The net must keep at
        # least half of that shortfall, so a net whose nfe=10 run does not
        # fall short of its nfe=500 run fails.  The 5x FLD ratio above is
        # kept for the linear path only: the analytic-FLD bias at n=8192,
        # D(D+1)sd^2/4n + D sd^2/n = 0.54 for D=64 and sd=2, is the nfe=500
        # floor, and the exact vp and gvp fields reach only 1.07 and 0.86
        # (1.97x and 1.58x) at nfe=10, against 5.38 (9.9x) for linear.
        g10 = float(np.prod(1.0 + velocity_coefficient(spec, interp, np.arange(10) / 10) / 10))
        rms_fine, rms_coarse = (float(np.sqrt(np.mean(np.square(tr.states[-1]))))
                                for tr in (fine, coarse))
        need = 0.5 * (LAG_DATA_STD - g10)
        clauses.append((f"{kind}: nfe=10 rms {rms_coarse:.3f} short of nfe=500 rms "
                        f"{rms_fine:.3f} by >= (sd - g10)/2 = {need:.3f} (g10 {g10:.4f})",
                        rms_fine - rms_coarse >= need))
    report(12, "corrector identity and lag existence across paths", clauses)
