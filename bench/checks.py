"""Correctness checks computed apart from the program.

Each check takes the program's output plus what it was given and returns a
list of failure messages (empty when the output is right).  The references
are written from the textbook definitions with numpy and scipy: nothing
here calls into the package, so a fault in a shared helper cannot hide.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from scipy.stats import multivariate_normal

# Slack for "non-decreasing" and "at or above": relative to the magnitude of
# the log likelihood, the same roundoff bound the package's own tests use.
ASCENT_SLACK = 1e-9
# The observed log likelihood of the final parameters, recomputed here,
# against the fit's own last trace entry.
LOGLIK_RTOL = 1e-8
# A converged flip-flop fit stops when the relative log likelihood change
# drops below 1e-8; its parameters then sat 1e-8 to 3e-6 (relative) from
# the fixed point on every benchmark shape tried.
FIXED_POINT_TOL = 1e-4


def _vec(a: np.ndarray) -> np.ndarray:
    """Column-stacked vector(s): entry (r, c) of a p x q matrix at c * p + r."""
    a = np.asarray(a, dtype=float)
    return a.T.ravel() if a.ndim == 2 else a.transpose(0, 2, 1).reshape(a.shape[0], -1)


def observed_loglik(values: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Sum over observations of the normal log density of the observed entries.

    ``mean`` is the stacked mean (length pq), ``cov`` the pq x pq covariance.
    Observations with the same missing set are scored together.
    """
    x = _vec(values)
    seen = ~np.isnan(x)
    total = 0.0
    patterns, inverse = np.unique(seen, axis=0, return_inverse=True)
    for j, keep in enumerate(patterns):
        rows = x[inverse.ravel() == j][:, keep]
        sub = multivariate_normal(mean[keep], cov[np.ix_(keep, keep)])
        total += float(np.sum(np.atleast_1d(sub.logpdf(rows))))
    return total


def _scale_free(a: float) -> float:
    return max(1.0, abs(a))


def check_trace(trace: np.ndarray, what: str) -> list:
    """The log likelihood trace never falls by more than roundoff."""
    trace = np.asarray(trace, dtype=float)
    if trace.size < 2:
        return [f"{what}: trace has {trace.size} entries, expected at least 2"]
    drops = np.diff(trace) + ASCENT_SLACK * np.maximum(1.0, np.abs(trace[:-1]))
    if (drops < 0).any():
        i = int(np.argmin(drops))
        return [f"{what}: log likelihood fell from {trace[i]!r} to {trace[i + 1]!r}"]
    return []


def check_em(values, mean, row, col, scale, trace, truth, what: str) -> tuple:
    """The em checks: the last trace value is the observed log likelihood of
    the estimate, the trace ascends, and the estimate scores at least as
    high as the true parameters.  Returns (failures, estimate's loglik)."""
    errors = check_trace(trace, what)
    ll = observed_loglik(values, _vec(mean), scale * np.kron(col, row))
    last = float(trace[-1])
    if abs(last - ll) > LOGLIK_RTOL * _scale_free(ll):
        errors.append(f"{what}: final trace value {last!r} != observed loglik {ll!r}")
    ll_truth = observed_loglik(values, _vec(truth.mean), truth.cov)
    if ll < ll_truth - ASCENT_SLACK * _scale_free(ll_truth):
        errors.append(f"{what}: estimate loglik {ll!r} below the truth's {ll_truth!r}")
    return errors, ll


def check_gem(values, mean_vec, cov, converged: bool, ll_em: float, what: str) -> list:
    """A converged unstructured fit scores at least as high as the em fit,
    whose Kronecker model it contains."""
    if not converged:
        return []
    ll = observed_loglik(values, np.asarray(mean_vec, float), np.asarray(cov, float))
    if ll < ll_em - ASCENT_SLACK * _scale_free(ll_em):
        return [f"{what}: converged gem loglik {ll!r} below em's {ll_em!r}"]
    return []


def flip_flop_residual(values, mean, row, col, scale) -> float:
    """Largest relative distance of (mean, col, row, scale) from one pass of
    the complete-data fixed-point equations evaluated at themselves.

    With R_i = X_i - mean(X):
      col = normalized sum R_i' inv(row) R_i,   row = normalized sum R_i inv(col) R_i',
      scale = sum tr(inv(row) R_i inv(col) R_i') / (n p q),
    where "normalized" divides by the top-left entry.
    """
    values = np.asarray(values, dtype=float)
    n, p, q = values.shape
    mean_hat = values.mean(axis=0)
    resid = values - mean_hat
    row_inv_r = np.linalg.solve(row, resid)  # inv(row) @ R_i, stacked
    col_raw = np.einsum("nij,nik->jk", resid, row_inv_r)
    r_col_inv = np.linalg.solve(col, resid.transpose(0, 2, 1)).transpose(0, 2, 1)
    row_raw = np.einsum("nij,nkj->ik", r_col_inv, resid)
    scale_hat = float(np.einsum("nij,nij->", resid, np.linalg.solve(row, r_col_inv)))
    scale_hat /= n * p * q

    def rel(est, ref):
        return float(np.linalg.norm(est - ref) / max(1e-300, np.linalg.norm(ref)))

    return max(
        rel(mean_hat, mean),
        rel(col_raw / col_raw[0, 0], col),
        rel(row_raw / row_raw[0, 0], row),
        rel(np.array(scale_hat), np.array(scale)),
    )


def check_mle(values, mean, row, col, scale, what: str) -> list:
    """The estimate solves the flip-flop fixed-point equations."""
    res = flip_flop_residual(values, mean, row, col, scale)
    if not res <= FIXED_POINT_TOL:
        return [f"{what}: fixed-point residual {res:.3e} > {FIXED_POINT_TOL:g}"]
    return []


def check_mm(values, mean, row, col, scale, what: str) -> list:
    """Mean fill: the mean is the per-cell nanmean, and the factors solve the
    complete-data equations on the filled data."""
    cell_mean = np.nanmean(values, axis=0)
    errors = []
    if not np.allclose(mean, cell_mean, rtol=1e-10, atol=1e-12):
        gap = float(np.max(np.abs(mean - cell_mean)))
        errors.append(f"{what}: mean differs from the per-cell nanmean by {gap:.3e}")
    filled = np.where(np.isnan(values), cell_mean, values)
    return errors + check_mle(filled, mean, row, col, scale, what)


def check_rel_err_sigma(est_cov, truth, reported: float, what: str) -> list:
    """The grid row's relative Frobenius error of the full covariance."""
    want = float(np.linalg.norm(est_cov - truth.cov) / np.linalg.norm(truth.cov))
    if not abs(want - reported) <= 1e-10 * max(1.0, want):
        return [f"{what}: rel_err_sigma {reported!r}, recomputed {want!r}"]
    return []


def projected_scores(values, class_params, basis) -> np.ndarray:
    """(n, K) log densities of the projected observations B' X_i, by scipy.

    ``class_params`` holds (mean, row, col, scale) per class; the projected
    law is matrix normal with mean B' M, row factor B' U B, same column
    factor and scale.  Flipping the sign of a basis vector flips both the
    data and the mean, so the scores do not depend on the sign convention.
    """
    y = _vec(np.einsum("pk,npq->nkq", basis, values))
    scores = np.empty((y.shape[0], len(class_params)))
    for c, (mean, row, col, scale) in enumerate(class_params):
        cov = scale * np.kron(col, basis.T @ row @ basis)
        scores[:, c] = multivariate_normal(_vec(basis.T @ mean), cov).logpdf(y)
    return scores


def leading_basis(row_cov: np.ndarray, k: int) -> np.ndarray:
    vals, vecs = np.linalg.eigh(row_cov)
    return vecs[:, np.argsort(vals)[::-1][:k]]


def check_labels(scores: np.ndarray, labels: np.ndarray, what: str) -> list:
    """Program labels against the brute-force argmax; a label may differ
    only where its score ties the best one to roundoff."""
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (scores.shape[0],):
        return [f"{what}: {labels.shape} labels for {scores.shape[0]} observations"]
    best = scores.max(axis=1)
    got = scores[np.arange(labels.size), labels - 1]
    wrong = np.flatnonzero(best - got > 1e-9 * np.maximum(1.0, np.abs(best)))
    if wrong.size:
        i = int(wrong[0])
        return [
            f"{what}: {wrong.size} labels differ from the argmax of the "
            f"densities (first: observation {i}, label {labels[i]}, "
            f"argmax {int(np.argmax(scores[i])) + 1})"
        ]
    return []


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def check_report(outdir: str, scores: np.ndarray, true_labels, row_cov, what: str) -> list:
    """The analyze report files against references built here.

    ``scores`` are the brute-force class scores of the fitted completions,
    ``row_cov`` the fitted shared row factor.
    """
    errors = []
    true_labels = np.asarray(true_labels, dtype=int)
    k = scores.shape[1]

    dist = np.array([[float(v) for v in row[1:]] for row in _read_csv(
        os.path.join(outdir, "distances.csv"))[1:]])
    if dist.shape != (k, k) or not np.array_equal(dist, dist.T):
        errors.append(f"{what}: distance matrix is not a symmetric {k} x {k}")
    elif np.any(np.diag(dist) != 0.0) or np.any(dist[~np.eye(k, dtype=bool)] <= 0):
        errors.append(f"{what}: distances need a zero diagonal and positive pairs")

    with open(os.path.join(outdir, "dendrogram.json"), encoding="utf-8") as handle:
        heights = [m["height"] for m in json.load(handle)["merges"]]
    if len(heights) != k - 1 or any(b < a for a, b in zip(heights, heights[1:])):
        errors.append(f"{what}: dendrogram heights {heights} are not k-1 non-decreasing")

    pca = _read_csv(os.path.join(outdir, "pca.csv"))[1:]
    eig = np.array([float(row[1]) for row in pca])
    want = np.sort(np.linalg.eigvalsh(row_cov))[::-1]
    if eig.shape != want.shape or not np.allclose(eig, want, rtol=1e-9, atol=1e-12):
        errors.append(f"{what}: PCA eigenvalues {eig} != eigvalsh {want}")

    confusion = np.array([[int(v) for v in row[1:]] for row in _read_csv(
        os.path.join(outdir, "confusion.csv"))[1:]])
    brute = np.zeros((k, k), dtype=int)
    np.add.at(brute, (true_labels - 1, np.argmax(scores, axis=1)), 1)
    if not np.array_equal(confusion, brute):
        errors.append(f"{what}: confusion {confusion.tolist()} != argmax {brute.tolist()}")

    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    if confusion.sum() != summary["n_obs"] or not (
        abs(summary["accuracy"] - np.trace(confusion) / confusion.sum()) <= 1e-12
    ):
        errors.append(f"{what}: summary accuracy {summary['accuracy']!r} != confusion")
    return errors
