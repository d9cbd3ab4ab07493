"""End-to-end acceptance gate.

Each test checks one release criterion and prints a single PASS/FAIL line
with the measured numbers, so the suite output doubles as a scorecard.
Run with `pytest tests/test_acceptance.py -s` to see the lines inline.
"""

import math
import time

import numpy as np

from uwbheading import gp, heading, iekf, pipeline, so2, world


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num} ({desc}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({desc}) failed: {detail}"


# --- helpers shared by the synthetic-world criteria --------------------------------


def make_world(seed, train_s, test_s, rate, **noise_overrides):
    cfg = pipeline.GenerateConfig(seed=seed, **noise_overrides)
    area = world.DEFAULT_AREA
    anchors = world.default_anchors(area)
    pattern = world.AntennaPattern()
    pl = world.PathLossModel()
    out = []
    for duration, traj_seed, noise_seed in (
        (train_s, seed, seed + 1_000_003),
        (test_s, seed + 1, seed + 2_000_003),
    ):
        traj = world.generate_trajectory(area, duration, rate, traj_seed)
        out.append(world.build_dataset(traj, anchors, pattern, cfg.noise(noise_seed), pl))
    return out  # [train_records, test_records]


def train_pair(records, max_points):
    feats = np.array([r.feature_vector() for r in records])
    gts = np.array([r.gt_heading for r in records])
    search = gp.HyperparamSearchConfig(max_points=max_points)
    return heading.train_heading_gps(feats, gts, search)


def gp_heading_rmse(pair, records):
    """Raw GP heading RMSE in degrees, no filtering."""
    feats = np.array([r.feature_vector() for r in records])
    errs = []
    for pt, rec in zip(heading.predict_pseudo_trig_many(pair, feats), records):
        try:
            m = heading.normalize(pt)
        except heading.DegeneratePredictionError:
            continue
        errs.append(so2.wrap_angle(m.angle - rec.gt_heading))
    return math.degrees(float(np.sqrt(np.mean(np.square(errs)))))


# --- 1: SO(2) round trip ------------------------------------------------------------


def test_criterion_1_so2_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    thetas = rng.uniform(-50.0, 50.0, size=1_000_000)
    back = so2.log_so2_many(so2.exp_so2_many(thetas))
    worst_rt = np.abs(so2.wrap_angle(back - thetas)).max()

    # group axioms on 10^5 random pairs: homomorphism, identity, inverse
    a = rng.uniform(-10.0, 10.0, size=100_000)
    b = rng.uniform(-10.0, 10.0, size=100_000)
    ra, rb = so2.exp_so2_many(a), so2.exp_so2_many(b)
    worst_hom = np.abs(ra @ rb - so2.exp_so2_many(a + b)).max()
    inv = np.transpose(ra, (0, 2, 1))
    worst_inv = np.abs(ra @ inv - np.eye(2)).max()
    elapsed = time.perf_counter() - start

    ok = worst_rt < 1e-12 and worst_hom < 1e-12 and worst_inv < 1e-12 and elapsed < 5.0
    report(
        1, "SO(2) exp/log round trip and group axioms", ok,
        f"[round_trip={worst_rt:.2e} homomorphism={worst_hom:.2e} "
        f"inverse={worst_inv:.2e} runtime={elapsed:.2f}s]",
    )


# --- 2: GP oracle equivalence ---------------------------------------------------------


def test_criterion_2_gp_dense_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 11))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        p = gp.SeKernelParams(
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(0.05, 0.5)),
        )
        std = gp.Standardizer(mean=np.zeros(d), scale=np.ones(d))
        model = gp.GpModel.from_params(gp.TrainingSet(x=x, y=y, standardizer=std), p)

        k = gp.gram_matrix(x, x, p) + p.sigma_n**2 * np.eye(n)
        k_inv = np.linalg.inv(k)
        xq = rng.normal(size=(5, d))
        k_star = gp.gram_matrix(x, xq, p)
        oracle_mean = k_star.T @ k_inv @ y
        oracle_var = p.sigma_f**2 - np.einsum("ij,ik,kj->j", k_star, k_inv, k_star)
        mean, var = model.predict_many(xq)
        worst = max(
            worst,
            float(np.abs(mean - oracle_mean).max()),
            float(np.abs(var - oracle_var).max()),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(
        2, "GP factorization matches dense-inverse oracle", ok,
        f"[worst_abs_err={worst:.2e} runtime={elapsed:.2f}s]",
    )


# --- 3: variance propagation vs Monte Carlo --------------------------------------------


def test_criterion_3_variance_propagation():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    var = 0.0025
    worst_rel = 0.0
    for k in range(8):
        theta = -math.pi + (2 * math.pi) * (k + 0.5) / 8
        pt = heading.PseudoTrig(s=math.sin(theta), c=math.cos(theta), var=var)
        analytic = heading.normalize(pt).var_theta
        s_draw = pt.s + math.sqrt(var) * rng.standard_normal(100_000)
        c_draw = pt.c + math.sqrt(var) * rng.standard_normal(100_000)
        sampled = so2.wrap_angle(np.arctan2(s_draw, c_draw) - theta)
        worst_rel = max(worst_rel, abs(float(np.var(sampled)) - analytic) / analytic)
    elapsed = time.perf_counter() - start
    ok = worst_rel < 0.15 and elapsed < 30.0
    report(
        3, "propagated heading variance matches Monte Carlo", ok,
        f"[worst_rel_err={worst_rel:.3f} runtime={elapsed:.2f}s]",
    )


# --- 4: filter convergence and consistency ----------------------------------------------


def test_criterion_4_filter_convergence(tmp_path):
    start = time.perf_counter()
    gen = pipeline.GenerateConfig(seed=0)  # 1800 s train / 300 s test at 10 Hz
    paths = pipeline.cmd_generate(gen, tmp_path / "data")
    pipeline.cmd_train(paths["train"], pipeline.TrainConfig(), tmp_path / "models")
    pair = heading.HeadingGpPair.load(tmp_path / "models")
    records = world.read_dataset(paths["test"])
    meas = pipeline._measurements_for("gp-iekf", records, pair, 0.0)
    q_c = world.read_metadata(paths["test"])["noise"]["gyro_psd"]

    n = len(records)
    post = slice(n // 10, None)  # post-transient window
    covered, total_post, mahal_in, total_mahal = 0, 0, 0, 0
    rmses = []
    for r in range(100):
        rng = np.random.default_rng([0, r])
        theta0 = so2.wrap_angle(records[0].gt_heading + rng.standard_normal())
        e, s3, mh = pipeline.run_filter(records, meas, q_c, theta0, 1.0)
        covered += int(np.sum(np.abs(e[post]) < s3[post]))
        total_post += e[post].size
        finite = np.isfinite(mh)
        mahal_in += int(np.sum(mh[finite] <= pipeline.MAHALANOBIS_BOUND_997))
        total_mahal += int(finite.sum())
        rmses.append(math.degrees(float(np.sqrt(np.mean(e**2)))))
    cover_frac = covered / total_post
    mahal_frac = mahal_in / total_mahal
    elapsed = time.perf_counter() - start
    ok = cover_frac >= 0.90 and mahal_frac >= 0.95 and elapsed < 600.0
    report(
        4, "GP-IEKF converges from 1 rad error and stays consistent", ok,
        f"[cover3sigma={cover_frac:.3f} mahal_in_bound={mahal_frac:.3f} "
        f"rmse={np.mean(rmses):.1f}deg runtime={elapsed:.1f}s]",
    )


# --- 5: estimator ordering over seeds ------------------------------------------------------


def test_criterion_5_estimator_ordering():
    ordering_ok = []
    dr_early, dr_late = [], []
    details = []
    for seed in range(10):
        train_recs, test_recs = make_world(100 + seed, 600.0, 60.0, 5.0)
        pair = train_pair(train_recs, max_points=500)
        meas_gp = pipeline._measurements_for("gp-iekf", test_recs, pair, 0.0)
        meas_dr = [None] * len(test_recs)
        q_c = 3e-3
        n = len(test_recs)
        gp_rmse, dr_rmse = [], []
        for r in range(5):
            rng = np.random.default_rng([seed, r])
            theta0 = so2.wrap_angle(
                test_recs[0].gt_heading + rng.standard_normal()
            )
            e_gp, _, _ = pipeline.run_filter(test_recs, meas_gp, q_c, theta0, 1.0)
            e_dr, _, _ = pipeline.run_filter(test_recs, meas_dr, q_c, theta0, 1.0)
            gp_rmse.append(float(np.sqrt(np.mean(e_gp**2))))
            dr_rmse.append(float(np.sqrt(np.mean(e_dr**2))))
            # separate perfect-init pass isolates the gyro random walk
            e_rw, _, _ = pipeline.run_filter(
                test_recs, meas_dr, q_c, test_recs[0].gt_heading, 1e-8
            )
            dr_early.append(e_rw[n // 4])
            dr_late.append(e_rw[-1])
        ordering_ok.append(np.mean(gp_rmse) < np.mean(dr_rmse))
        details.append(f"{math.degrees(np.mean(gp_rmse)):.0f}/{math.degrees(np.mean(dr_rmse)):.0f}")
    var_growth = np.var(dr_late) > np.var(dr_early)
    ok = all(ordering_ok) and var_growth
    report(
        5, "GP-IEKF beats dead reckoning on every seed", ok,
        f"[rmse gp/dr deg per seed: {' '.join(details)}; "
        f"dr var {np.var(dr_early):.3f}->{np.var(dr_late):.3f} rad^2]",
    )


# --- 6: RSS quantization sensitivity ---------------------------------------------------------


def test_criterion_6_quantization_sensitivity():
    rmses = {0.1: [], 1.0: []}
    for seed in range(5):
        for quantum in (0.1, 1.0):
            train_recs, test_recs = make_world(
                200 + seed, 400.0, 60.0, 5.0, rss_std=0.1, rss_quantum=quantum
            )
            pair = train_pair(train_recs, max_points=400)
            rmses[quantum].append(gp_heading_rmse(pair, test_recs))
    fine, coarse = float(np.mean(rmses[0.1])), float(np.mean(rmses[1.0]))
    ok = fine <= coarse
    report(
        6, "finer RSS quantization does not hurt GP heading RMSE", ok,
        f"[rmse quantum=0.1: {fine:.2f}deg, quantum=1.0: {coarse:.2f}deg]",
    )


# --- 7: Riccati fixed point ----------------------------------------------------------------


def test_criterion_7_riccati_fixed_point():
    q_c, dt, r = 2e-4, 0.1, 0.03
    state = iekf.FilterState.from_angle(0.0, 1.0)
    noise = iekf.ProcessNoise(q_c)
    m = heading.HeadingMeasurement(angle=0.0, var_theta=r)
    for _ in range(10_000):
        state = iekf.predict(state, iekf.GyroSample(rate=0.0, dt=dt), noise)
        state, _ = iekf.correct(state, m)
    # oracle: iterate the scalar covariance recursion itself to convergence
    p = 1.0
    for _ in range(10_000):
        pp = p + q_c * dt
        k = pp / (pp + r)
        p = (1 - k) ** 2 * pp + k**2 * r
    err = abs(state.cov - p)
    ok = err < 1e-6
    report(
        7, "steady-state covariance matches Riccati fixed point", ok,
        f"[filter={state.cov:.8f} oracle={p:.8f} abs_err={err:.2e}]",
    )


# --- 8: dead-reckoning random walk ------------------------------------------------------------


def test_criterion_8_dead_reckon_random_walk():
    q_c, dt, steps = 1e-3, 0.1, 100
    horizon = q_c * dt * steps
    finals = []
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        rates = math.sqrt(q_c / dt) * rng.standard_normal(steps)
        state = iekf.FilterState.from_angle(0.0, 1e-12)
        for w in rates:
            state = iekf.predict(
                state, iekf.GyroSample(rate=w, dt=dt), iekf.ProcessNoise(q_c)
            )
        finals.append(state.angle)
    measured = float(np.std(finals))
    expected = math.sqrt(horizon)
    rel = abs(measured - expected) / expected
    ok = rel < 0.10
    report(
        8, "dead-reckoning ensemble std follows sqrt(q_c*T)", ok,
        f"[measured={measured:.4f} expected={expected:.4f} rel_err={rel:.3f}]",
    )
