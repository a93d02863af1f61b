"""Class-conditional fits and spectral analysis of the fitted row covariance.

Labeled data gets one mean, one column covariance, and one variance scale
per class, with a single row covariance pooled across classes, fitted by
:func:`matnorm.missing._fit_classes`, the Kronecker EM that
:func:`~matnorm.missing.fit_em` runs with one class.  The pooled factor is
then eigen-decomposed, observations are projected onto its leading
directions (reducing the row dimension while keeping every column), and
classes are compared in that projected space: a symmetric two-sided
Mahalanobis distance between class centers, hierarchical clustering of the
resulting distance matrix, and a maximum likelihood classifier that scores
each class once over the whole stack of projected observations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import spd_cholesky, spd_inverse, spd_solve
from .mle import EstimationError, FitConfig
from .missing import _complete, _fit_classes, _held, _mean_filled
from .model import DataError, MatrixNormalParams, ObservationSet
from .model import _log_densities, _whole_labels
from .model import log_density  # noqa: F401  (spectral.log_density stays a public binding)


@dataclass(eq=False)
class LabeledObservationSet(ObservationSet):
    """Observations with dense integer class labels 1..K, each class >= 2 strong."""

    labels: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.labels = _whole_labels(self.labels)
        if self.labels.shape != (self.n_obs,):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.n_obs} observations"
            )
        present = np.unique(self.labels)
        k = present.size
        if not np.array_equal(present, np.arange(1, k + 1)):
            raise ValueError(
                f"labels must be dense integers 1..K, got {present.tolist()}"
            )
        counts = np.bincount(self.labels, minlength=k + 1)[1:]
        if (counts < 2).any():
            c = int(np.flatnonzero(counts < 2)[0]) + 1
            raise ValueError(f"class {c} has {counts[c - 1]} observation(s); need >= 2")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max())

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


@dataclass(eq=False)
class ClassModel:
    """Per-class parameters around one shared row covariance.

    ``class_params[c - 1]`` holds class c; every entry references the
    identical row covariance array object.  ``completions`` carries the
    conditional completions from the final fit pass (for MM fits, the mean
    filled values), in the original observation order.
    """

    class_params: list
    completions: np.ndarray
    labels: np.ndarray
    method: str
    loglik_trace: np.ndarray
    iterations: int
    wall_time: float
    converged: bool

    @property
    def n_classes(self) -> int:
        return len(self.class_params)

    @property
    def row_cov(self) -> np.ndarray:
        return self.class_params[0].row_cov


def fit_class_models(
    data: LabeledObservationSet,
    method: str = "em",
    config: "FitConfig | None" = None,
) -> ClassModel:
    """Fit the shared-row-covariance class model by blockwise ascent.

    The classes go through :func:`~matnorm.missing._fit_classes`, the
    Kronecker EM driver that :func:`~matnorm.missing.fit_em` runs with one
    class.  Each outer iteration conditions every observation on its class
    parameters, re-estimates each class's mean and column side (a joint
    maximizer of the expected complete log likelihood over that class's
    column factor and scale), then pools all classes into one row factor
    update.  Renormalizing the pooled factor trades a constant between it
    and every class scale, which leaves all class covariances, and hence
    the likelihood, unchanged, so the ascent survives the normalization.
    With ``method="mm"`` missing entries are instead fixed at their class
    cell means up front and the same loop runs on complete data.
    """
    start = time.perf_counter()
    cfg = config or FitConfig()
    method = method.lower()
    if method not in ("mm", "em"):
        raise ValueError(f"method must be 'mm' or 'em', got {method!r}")
    class_ids = [data.class_indices(c) for c in range(1, data.n_classes + 1)]
    class_values = [data.values[ids] for ids in class_ids]
    if method == "mm":
        classes = [_complete(_mean_filled(vals)) for vals in class_values]
    else:
        classes = [_held(vals) for vals in class_values]
    class_params, completions, result = _fit_classes(classes, cfg, start)
    merged = np.empty_like(data.values)
    for ids, comp in zip(class_ids, completions):
        merged[ids] = comp
    return ClassModel(
        class_params=class_params,
        completions=merged,
        labels=data.labels.copy(),
        method=method,
        loglik_trace=result.loglik_trace,
        iterations=result.iterations,
        wall_time=result.wall_time,
        converged=result.converged,
    )


@dataclass(eq=False)
class PcaResult:
    """Eigen-decomposition of a row covariance, descending.

    ``eigenvectors`` holds all p orthonormal columns; ``k`` records how
    many leading components the caller asked to retain.  Sign convention:
    each column's largest magnitude entry is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    fractions: np.ndarray
    k: int


def pca_row_cov(model: "ClassModel | np.ndarray", k: "int | None" = None) -> PcaResult:
    """Eigen-decompose the (shared) fitted row covariance."""
    row_cov = model.row_cov if isinstance(model, ClassModel) else np.asarray(model, float)
    p = row_cov.shape[0]
    if k is None:
        k = p
    if not 1 <= k <= p:
        raise ValueError(f"k must lie in [1, {p}], got {k}")
    eigvals, eigvecs = scipy.linalg.eigh(row_cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    for j in range(p):
        lead = int(np.argmax(np.abs(eigvecs[:, j])))
        if eigvecs[lead, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    total = float(eigvals.sum())
    fractions = eigvals / total if total > 0 else np.full(p, np.nan)
    return PcaResult(
        eigenvalues=eigvals, eigenvectors=eigvecs, fractions=fractions, k=int(k)
    )


def project(data, pca: PcaResult, k: "int | None" = None) -> np.ndarray:
    """Project observations onto the leading row-space directions.

    Maps each p x q matrix to k x q, keeping the column (time) axis
    untouched.  Input may be an observation container or a bare array of
    shape (n, p, q) or (p, q); entries must be complete, so fitted data
    should pass through its completions.
    """
    values = getattr(data, "values", data)
    values = np.asarray(values, dtype=float)
    single = values.ndim == 2
    if single:
        values = values[None]
    if values.ndim != 3:
        raise ValueError(f"expected (n, p, q) or (p, q) values, got {values.shape}")
    p = pca.eigenvectors.shape[0]
    if values.shape[1] != p:
        raise ValueError(f"row dimension {values.shape[1]} does not match PCA size {p}")
    if k is None:
        k = pca.k
    if not 1 <= k <= p:
        raise ValueError(f"k must lie in [1, {p}], got {k}")
    if np.isnan(values).any():
        raise DataError(
            "projection requires complete data; project fitted completions instead"
        )
    basis = pca.eigenvectors[:, :k]
    out = np.einsum("pk,npq->nkq", basis, values)
    return out[0] if single else out


def projected_class_stats(projected: np.ndarray, labels: np.ndarray) -> list:
    """Per-class mean vector and 1/N-scaled covariance of stacked projections.

    Projected observations (n, k, q) are column-stacked to vectors of
    length k*q; returns one (mean, covariance) pair per class label 1..K.
    """
    projected = np.asarray(projected, dtype=float)
    labels = _whole_labels(labels)
    n, k, q = projected.shape
    flat = projected.transpose(0, 2, 1).reshape(n, k * q)
    stats = []
    for c in range(1, int(labels.max()) + 1):
        ids = np.flatnonzero(labels == c)
        block = flat[ids]
        mean = block.mean(axis=0)
        resid = block - mean
        cov = resid.T @ resid / ids.size
        stats.append((mean, (cov + cov.T) / 2.0))
    return stats


def class_distance(
    mean_i: np.ndarray, cov_i: np.ndarray, mean_j: np.ndarray, cov_j: np.ndarray
) -> float:
    """Symmetric two-sided Mahalanobis distance through the pooled center.

    The center weights the two means by their precisions (the weight
    matrices sum to the identity), and each side contributes its own
    Mahalanobis distance to that center.  Zero exactly when the means
    coincide; equal covariances reduce it to half the squared Mahalanobis
    distance between the means.
    """
    prec_i, _ = spd_inverse(np.asarray(cov_i, float))
    prec_j, _ = spd_inverse(np.asarray(cov_j, float))
    mean_i = np.asarray(mean_i, float)
    mean_j = np.asarray(mean_j, float)
    s = prec_i + prec_j
    chol = spd_cholesky(s)
    center = prec_i @ spd_solve(chol, mean_i) + prec_j @ spd_solve(chol, mean_j)
    d_i = mean_i - center
    d_j = mean_j - center
    return float(d_i @ prec_i @ d_i + d_j @ prec_j @ d_j)


def distance_matrix(stats: list) -> np.ndarray:
    """All pairwise class distances; symmetric with zero diagonal."""
    k = len(stats)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d = class_distance(stats[i][0], stats[i][1], stats[j][0], stats[j][1])
            out[i, j] = out[j, i] = d
    return out


def separability(distances: np.ndarray) -> tuple[float, float]:
    """Total pairwise distance and its logarithm."""
    distances = np.asarray(distances, dtype=float)
    total = float(np.triu(distances, k=1).sum())
    if not total > 0:
        raise ValueError(f"total distance must be positive to take its log, got {total}")
    return total, math.log(total)


@dataclass(frozen=True)
class ClusterMerge:
    """One agglomeration step: cluster ids joined, linkage height, merged size."""

    left: int
    right: int
    height: float
    size: int


def hierarchical_cluster(distances: np.ndarray) -> list:
    """Average linkage agglomeration of a class distance matrix.

    Leaves are 0..K-1 (class c maps to leaf c-1) and each merge creates id
    K, K+1, ...; ties pick the lexicographically smallest id pair.  Average
    linkage heights never decrease, so the merge list reads as a dendrogram
    bottom to top.
    """
    d = np.asarray(distances, dtype=float)
    k = d.shape[0]
    if d.ndim != 2 or d.shape != (k, k):
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if k < 2:
        raise ValueError("clustering needs at least 2 classes")
    if not np.allclose(d, d.T, atol=1e-8):
        raise ValueError("distance matrix must be symmetric")
    if not np.allclose(np.diag(d), 0.0, atol=1e-8):
        raise ValueError("distance matrix must have a zero diagonal")

    members = {i: [i] for i in range(k)}
    next_id = k
    merges = []
    while len(members) > 1:
        best = None
        for a in sorted(members):
            for b in sorted(members):
                if b <= a:
                    continue
                pairs = d[np.ix_(members[a], members[b])]
                height = float(pairs.mean())
                if best is None or height < best[0] - 1e-15:
                    best = (height, a, b)
        height, a, b = best
        merged = members.pop(a) + members.pop(b)
        members[next_id] = merged
        merges.append(ClusterMerge(left=a, right=b, height=height, size=len(merged)))
        next_id += 1
    return merges


def _projected_params(model: ClassModel, pca: PcaResult, k: int) -> list:
    """Class parameters mapped into the retained row subspace.

    The projected row factor is re-pinned to 1 at its top-left entry by
    moving the constant into the class scale, which leaves the projected
    law unchanged.
    """
    basis = pca.eigenvectors[:, :k]
    out = []
    for params in model.class_params:
        row = basis.T @ params.row_cov @ basis
        row = (row + row.T) / 2.0
        kappa = float(row[0, 0])
        if not kappa > 0:
            raise EstimationError("projected row covariance is degenerate")
        out.append(
            MatrixNormalParams(
                basis.T @ params.mean,
                row / kappa,
                params.col_cov,
                params.scale * kappa,
            )
        )
    return out


def mle_classify(
    x: np.ndarray, model: ClassModel, pca: PcaResult, k: "int | None" = None
):
    """Assign observations to the class maximizing the projected log density.

    Accepts one p x q matrix (returns an integer label) or a stack
    (returns an integer array); ties resolve to the lower class label.
    Each class is scored once over the whole projected stack, so its
    covariance is factored once per call, however many observations there
    are; every score still depends on its own observation alone.
    """
    if k is None:
        k = pca.k
    p = pca.eigenvectors.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"k must lie in [1, {p}], got {k}")
    shape = np.shape(getattr(x, "values", x))
    q = model.class_params[0].q
    if shape[-1:] != (q,):
        raise ValueError(
            f"observation shape {shape} does not match the model's "
            f"{p} x {q} observations"
        )
    proj = project(x, pca, k)
    single = proj.ndim == 2
    if single:
        proj = proj[None]
    scores = np.stack(
        [_log_densities(proj, params) for params in _projected_params(model, pca, k)],
        axis=1,
    )
    labels = np.argmax(scores, axis=1) + 1
    return int(labels[0]) if single else labels
