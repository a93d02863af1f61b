"""Release acceptance checks, one test per numbered criterion.

Every test asserts its fixed thresholds and then prints a single [PASS]
line carrying the measured margin, so a verbose run doubles as a release
checklist.  The tolerances and grid shapes are pinned on purpose:
loosening them is a release decision, not a test fix.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from matnorm.linalg import kron, vec
from matnorm.missing import (
    _conditional_grid,
    _e_step,
    conditional_moments,
    detect_pattern,
    fit_em,
    fit_gem,
    fit_mm,
)
from matnorm.mle import FitConfig, _pooled_m_step, fit_mle
from matnorm.model import MatrixNormalParams, sample
from matnorm.simulate import SimConfig, inject_missing, random_params, run_grid
from matnorm.spectral import (
    LabeledObservationSet,
    distance_matrix,
    fit_class_models,
    pca_row_cov,
    project,
    projected_class_stats,
    separability,
)


def test_criterion_01_conditional_moments_match_direct_conditioning():
    """Sweep-based conditioning vs textbook partitioned-covariance formulas."""
    t0 = time.monotonic()
    worst = 0.0
    for p, q in ((2, 3), (3, 4)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=1101, spawn_key=(p, q))
        )
        pq = p * q
        for _ in range(1000):
            params = random_params(p, q, rng)
            x = sample(params, 1, rng).values[0]
            k = int(rng.integers(1, pq))
            miss = np.sort(rng.choice(pq, size=k, replace=False))
            x[miss % p, miss // p] = np.nan

            got = conditional_moments(x, params)

            sigma = params.full_covariance()
            obs = np.setdiff1d(np.arange(pq), miss, assume_unique=True)
            mean_vec = vec(params.mean)
            x_vec = vec(x)
            coef = np.linalg.solve(sigma[np.ix_(obs, obs)], sigma[np.ix_(obs, miss)])
            mu_cond = mean_vec[miss] + coef.T @ (x_vec[obs] - mean_vec[obs])
            cov_cond = sigma[np.ix_(miss, miss)] - sigma[np.ix_(miss, obs)] @ coef

            fill = vec(got.mean_completion)[miss]
            worst = max(
                worst,
                float(np.abs(fill - mu_cond).max()),
                float(np.abs(got.cond_cov - cov_cond).max()),
            )
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 1: 2000 random patterns at 2x3 and 3x4, "
        f"max abs deviation {worst:.2e} <= 1e-9 in {elapsed:.1f}s"
    )


def test_criterion_02_em_ascends_and_converges_on_seeded_problems():
    """Observed log likelihood never drops; 49 of 50 problems converge."""
    converged = 0
    worst_drop = 0.0
    for trial in range(50):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=2202, spawn_key=(trial,))
        )
        params = random_params(3, 5, rng)
        data = inject_missing(sample(params, 250, rng), 0.10, rng)
        result = fit_em(data, FitConfig(max_iters=500, tol=1e-8))
        trace = result.loglik_trace
        slack = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
        drops = np.diff(trace) + slack
        worst_drop = min(worst_drop, float(drops.min()))
        assert np.all(drops >= 0.0), f"trial {trial}: log likelihood decreased"
        converged += bool(result.converged)
    assert converged >= 49
    print(
        f"\n[PASS] criterion 2: ascent held on all 50 problems "
        f"(worst slackened step {worst_drop:.2e}), {converged}/50 converged"
    )


def test_criterion_03_all_estimators_agree_with_mle_on_complete_data():
    """With nothing missing, mm and em reproduce the mle; gem reproduces
    the closed-form mean and scatter of its own unstructured model."""
    cfg = FitConfig(max_iters=500, tol=1e-8)
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=3303, spawn_key=(trial,))
        )
        params = random_params(3, 4, rng)
        data = sample(params, 80, rng)
        ref = fit_mle(data, cfg).params
        for fitter in (fit_mm, fit_em):
            got = fitter(data, cfg).params
            diffs = (
                float(np.abs(got.mean - ref.mean).max()),
                float(np.abs(got.row_cov - ref.row_cov).max()),
                float(np.abs(got.col_cov - ref.col_cov).max()),
                abs(got.scale - ref.scale),
            )
            worst = max(worst, *diffs)
            assert max(diffs) <= 1e-8

        gem_params, _ = fit_gem(data, cfg)
        flat = data.values.transpose(0, 2, 1).reshape(80, 12)
        mean_hat = flat.mean(axis=0)
        centered = flat - mean_hat
        scatter = centered.T @ centered / 80
        gem_diffs = (
            float(np.abs(gem_params.mean - mean_hat).max()),
            float(np.abs(gem_params.cov - scatter).max()),
        )
        worst = max(worst, *gem_diffs)
        assert max(gem_diffs) <= 1e-8
    print(
        f"\n[PASS] criterion 3: mm, em, and gem agree with their exact "
        f"complete-data fits on 10 datasets, max deviation {worst:.2e} <= 1e-8"
    )


@pytest.fixture(scope="module")
def error_grid():
    """Shared mm-vs-em error grid: 3x5, three sample sizes, four rates."""
    cfg = SimConfig(
        dims=((3, 5),),
        sample_sizes=(250, 500, 1000),
        miss_props=(0.05, 0.10, 0.15, 0.20),
        replicates=20,
        seed=2026,
        methods=("mm", "em"),
    )
    t0 = time.monotonic()
    report = run_grid(cfg)
    return report, time.monotonic() - t0


def _sigma_medians(report):
    return {
        (c["method"], c["N"], c["miss_prop"]): c["median_rel_err_sigma"]
        for c in report.summary()["cells"]
    }


def test_criterion_04_em_beats_mean_fill_in_every_grid_cell(error_grid):
    report, elapsed = error_grid
    med = _sigma_medians(report)
    min_gap = math.inf
    for n in (250, 500, 1000):
        for prop in (0.05, 0.10, 0.15, 0.20):
            mm = med[("mm", n, prop)]
            em = med[("em", n, prop)]
            min_gap = min(min_gap, mm - em)
            assert mm > em, f"N={n} rate={prop}: mm {mm:.4f} <= em {em:.4f}"
    assert elapsed < 900.0
    print(
        f"\n[PASS] criterion 4: mean-fill median covariance error above em "
        f"in all 12 cells (smallest gap {min_gap:.4f}), grid in {elapsed:.0f}s"
    )


def test_criterion_06_em_error_shrinks_with_sample_size(error_grid):
    report, _ = error_grid
    med = _sigma_medians(report)
    min_drop = math.inf
    for prop in (0.05, 0.10, 0.15, 0.20):
        seq = [med[("em", n, prop)] for n in (250, 500, 1000)]
        for a, b in zip(seq, seq[1:]):
            min_drop = min(min_drop, a - b)
            assert a > b, f"rate={prop}: {seq} is not strictly decreasing"
    print(
        f"\n[PASS] criterion 6: em median covariance error strictly falls "
        f"from N=250 to N=1000 at every rate (smallest drop {min_drop:.4f})"
    )


def test_criterion_05_runtime_ordering_mm_em_gem():
    """Median single-threaded wall time per fit: mm < em < gem."""
    cfg = SimConfig(
        dims=((3, 7),),
        sample_sizes=(500,),
        miss_props=(0.10,),
        replicates=20,
        seed=2026,
        methods=("mm", "gem", "em"),
    )
    report = run_grid(cfg)
    times = {
        c["method"]: c["median_runtime_seconds"]
        for c in report.summary()["cells"]
    }
    assert times["mm"] < times["em"] < times["gem"]
    print(
        f"\n[PASS] criterion 5: median fit seconds mm {times['mm']:.4f} < "
        f"em {times['em']:.4f} < gem {times['gem']:.4f} over 20 replicates"
    )


def test_criterion_07_kronecker_identities():
    """Inverse, determinant, vec, and trace-form identities at 1e-8."""
    rng = np.random.default_rng(7707)
    worst = 0.0

    def rel(got, want):
        denom = max(float(np.abs(want).max()), 1e-300)
        return float(np.abs(got - want).max()) / denom

    for _ in range(25):
        for p, q in ((2, 3), (3, 4), (4, 2)):
            params = random_params(p, q, rng)
            row, col = params.row_cov, params.col_cov
            big = kron(col, row)

            inv_big = np.linalg.inv(big)
            worst = max(worst, rel(kron(np.linalg.inv(col), np.linalg.inv(row)), inv_big))

            det_prod = np.linalg.det(np.linalg.inv(col)) ** p
            det_prod *= np.linalg.det(np.linalg.inv(row)) ** q
            worst = max(
                worst, abs(np.linalg.det(inv_big) - det_prod) / abs(det_prod)
            )

            a = rng.standard_normal((p, p))
            b = rng.standard_normal((q, q))
            x = rng.standard_normal((p, q))
            worst = max(worst, rel(kron(b.T, a) @ vec(x), vec(a @ x @ b)))

            e = rng.standard_normal((p, q))
            rp, cp = np.linalg.inv(row), np.linalg.inv(col)
            trace_form = float(np.sum(e * (rp @ e @ cp)))
            vec_form = float(vec(e) @ kron(cp, rp) @ vec(e))
            worst = max(worst, abs(trace_form - vec_form) / abs(vec_form))
    assert worst <= 1e-8
    print(
        f"\n[PASS] criterion 7: kronecker inverse, determinant, vec, and "
        f"trace identities agree to {worst:.2e} <= 1e-8 relative"
    )


def test_criterion_08_pattern_indexing_fixture():
    """A 3x7 observation with six fixed holes indexes exactly as worked
    out by hand: stacked positions, row and column coordinates, masks."""
    x = np.arange(1.0, 22.0).reshape(7, 3).T  # entry at (r, c) is c*3 + r + 1
    holes = (1, 2, 8, 12, 17, 18)
    for idx in holes:
        x[idx % 3, idx // 3] = np.nan

    pattern = detect_pattern(x[None, :, :])
    np.testing.assert_array_equal(pattern.miss[0], holes)
    assert (pattern.rows[0] + 1).tolist() == [2, 3, 3, 1, 3, 1]
    assert (pattern.cols[0] + 1).tolist() == [1, 1, 3, 5, 6, 7]

    expected_row_mask = np.eye(3)[np.array([2, 3, 3, 1, 3, 1]) - 1]
    expected_col_mask = np.eye(7)[np.array([1, 1, 3, 5, 6, 7]) - 1]
    np.testing.assert_array_equal(pattern.row_masks[0], expected_row_mask)
    np.testing.assert_array_equal(pattern.col_masks[0], expected_col_mask)

    expected_obs = np.setdiff1d(np.arange(21), np.array(holes))
    np.testing.assert_array_equal(pattern.observed[0], expected_obs)
    print(
        "\n[PASS] criterion 8: fixed 3x7 pattern indexes to rows "
        "[2,3,3,1,3,1], columns [1,1,3,5,6,7], and the matching masks"
    )


def test_criterion_09_em_separability_dominates_mean_fill():
    """Two-class separability: em-fitted class models beat mean-fill in at
    least 70 of 100 replicates on the log distance total."""
    p_dim, q_dim, n_per = 4, 10, 150
    cfg = FitConfig(max_iters=300, tol=1e-7)

    def ar1(dim, rho):
        idx = np.arange(dim)
        return rho ** np.abs(idx[:, None] - idx[None, :])

    def one_replicate(rep):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=9, spawn_key=(rep,))
        )
        g = rng.standard_normal((p_dim, p_dim))
        row_cov = g @ g.T / p_dim + 0.2 * np.eye(p_dim)
        row_cov /= row_cov[0, 0]
        # class contrast rides the leading row direction and alternates in
        # time, where mean-fill distorts the estimated geometry the most
        w, v = np.linalg.eigh(row_cov)
        lead = v[:, -1]
        lead = lead * np.sign(lead[np.argmax(np.abs(lead))])
        delta = 0.7 * np.outer(lead, (-1.0) ** np.arange(q_dim))
        mu1 = rng.standard_normal((p_dim, q_dim)) * 0.3
        c1 = MatrixNormalParams(mu1, row_cov, ar1(q_dim, 0.85), 1.0)
        c2 = MatrixNormalParams(mu1 + delta, row_cov, ar1(q_dim, 0.75), 1.3)
        v1 = inject_missing(sample(c1, n_per, rng), 0.05, rng).values
        v2 = inject_missing(sample(c2, n_per, rng), 0.05, rng).values
        data = LabeledObservationSet(
            np.concatenate([v1, v2]), np.repeat([1, 2], n_per)
        )
        logs = {}
        for method in ("em", "mm"):
            model = fit_class_models(data, method=method, config=cfg)
            pca = pca_row_cov(model, 2)
            stats = projected_class_stats(
                project(model.completions, pca), data.labels
            )
            _, logs[method] = separability(distance_matrix(stats))
        return logs["em"] >= logs["mm"]

    wins = sum(one_replicate(rep) for rep in range(100))
    assert wins >= 70
    print(
        f"\n[PASS] criterion 9: em log separability at or above mean-fill "
        f"in {wins}/100 replicates (needs 70)"
    )


def test_criterion_10_m_step_matches_numerical_q_maximizer():
    """One closed-form update on a tiny problem against direct numerical
    maximization of the expected complete-data objective, block by block."""
    values = np.array(
        [
            [[1.0, 2.0], [0.5, np.nan]],
            [[np.nan, 1.5], [2.5, 0.0]],
            [[0.2, -1.0], [1.2, 0.8]],
        ]
    )
    old = MatrixNormalParams(
        np.array([[0.1, -0.2], [0.3, 0.05]]),
        np.array([[1.0, 0.3], [0.3, 1.2]]),
        np.array([[1.0, -0.2], [-0.2, 0.9]]),
        0.8,
    )
    pattern = detect_pattern(values)
    completions, frees, _ = _e_step(values, pattern, old)
    new = _pooled_m_step([_conditional_grid(pattern, frees)], [completions], [old])[0]

    cond_covs = [conditional_moments(values[i], old).cond_cov for i in range(3)]

    def q_value(mean, row_side, col_side):
        # expected complete-data objective for covariance kron(col, row);
        # the variance scale rides inside whichever factor absorbs it
        rp = np.linalg.inv(row_side)
        cp = np.linalg.inv(col_side)
        _, row_logdet = np.linalg.slogdet(row_side)
        _, col_logdet = np.linalg.slogdet(col_side)
        total = -0.5 * 3 * (2 * row_logdet + 2 * col_logdet + 4 * math.log(2 * math.pi))
        for i in range(3):
            resid = completions[i] - mean
            quad = float(np.sum(resid * (rp @ resid @ cp)))
            c = cond_covs[i]
            if c.size:
                rows, cols = pattern.rows[i], pattern.cols[i]
                pair = rp[np.ix_(rows, rows)] * cp[np.ix_(cols, cols)]
                quad += float(np.sum(c * pair))
            total -= 0.5 * quad
        return total

    def sym(v):
        return np.array([[v[0], v[1]], [v[1], v[2]]])

    def maximize(fun, x0):
        opts = dict(xatol=1e-12, fatol=1e-13, maxiter=40000, maxfev=40000)
        best = minimize(fun, x0, method="Nelder-Mead", options=opts)
        best = minimize(fun, best.x, method="Nelder-Mead", options=opts)
        return best.x

    def penalized(build_q):
        def fun(v):
            m = sym(v)
            if np.linalg.eigvalsh(m)[0] <= 1e-10:
                return 1e6 * (1.0 + float(np.abs(v).sum()))
            return -build_q(m)

        return fun

    # block 1: the mean, covariance frozen at the old values
    mu_hat = maximize(
        lambda v: -q_value(v.reshape(2, 2), old.scale * old.row_cov, old.col_cov),
        old.mean.ravel(),
    ).reshape(2, 2)
    worst = float(np.abs(mu_hat - new.mean).max())

    # block 2: the column side absorbs the scale, row shape frozen
    b_star = sym(
        maximize(
            penalized(lambda b: q_value(new.mean, old.row_cov, b)),
            (old.scale * old.col_cov)[np.triu_indices(2)],
        )
    )
    worst = max(worst, float(np.abs(b_star / b_star[0, 0] - new.col_cov).max()))

    # block 3: the row side absorbs the scale, fresh column shape frozen
    a_star = sym(
        maximize(
            penalized(lambda a: q_value(new.mean, a, new.col_cov)),
            (old.scale * old.row_cov)[np.triu_indices(2)],
        )
    )
    worst = max(worst, float(np.abs(a_star / a_star[0, 0] - new.row_cov).max()))
    worst = max(worst, abs(float(a_star[0, 0]) - new.scale))

    assert worst <= 1e-4
    print(
        f"\n[PASS] criterion 10: every update block within {worst:.2e} "
        "<= 1e-4 of the numerically maximized objective"
    )
