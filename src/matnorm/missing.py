"""Estimation with missing entries.

Three fitters cover the usual quality/cost trade:

* :func:`fit_mm` fills each missing cell with that cell's observed mean and
  runs the complete data fit on the filled set.  Cheap, and biased: imputed
  cells sit exactly at the mean, so spread is understated.
* :func:`fit_em` is expectation-maximization under the Kronecker structure.
  The E-step conditions each observation's missing block on its observed
  block under the scale free precision ``kron(inv(col_cov), inv(row_cov))``
  without forming that pq x pq matrix: the missing block of the precision
  is gathered entrywise from the two factor inverses, and its Cholesky
  factor gives what sweeping those pivots would (the conditional mean, the
  conditional covariance, and the observed likelihood term) at the cost of
  an m x m factorization per distinct set of m missing entries.  From 9
  holes up (:data:`matnorm.linalg._POTRI_MIN_HOLES`) the conditional
  covariance is inverted from that factor too, by LAPACK ``dpotri`` in
  place over the factor; smaller sets take one batched LU inverse, which is
  faster there.  The E-step makes one pass over the data with the factor
  inverses the last M-step handed on, so each factor is factored once per
  parameter set.  It reads and writes the holes through the flat positions
  that :func:`detect_pattern` builds in its one pass over the mask, which
  also locate each hole set's missing precision block in the two factors:
  one integer per pair of holes, whose high bits a shift reads as the
  pair's column-factor position and whose low bits a mask reads as its
  row-factor position.  The
  M-step is the complete data update of :mod:`matnorm.mle` on the
  completions, plus the conditional covariances: one scatter sums them all
  onto a single conditional-covariance grid, which each factor update
  contracts with the other factor's precision.  em is :func:`_fit_classes` with one class,
  the driver that also fits the class model of :mod:`matnorm.spectral`.
  It follows each plain update with a squared extrapolation along the last
  two, which the loop takes on the Kronecker coordinates and maps back
  through :func:`matnorm.mle._squarem_params`, kept only when one update
  from it ends no lower; this takes about a third fewer E-steps to the same
  tolerance.
* :func:`fit_gem` is the classical EM for an unstructured multivariate
  normal on the stacked vectors: pq(pq+1)/2 free covariance entries, no
  Kronecker assumption.  The flexible baseline, and the slowest: each
  E-step pays for a pq x pq precision.  Its E-step is em's with that
  precision, inverted from the Cholesky factor that checked the
  covariance: the same hole positions gather its missing blocks, and the
  same kernel conditions them.  With holes it extrapolates like em, by
  the loop's one step on its own coordinates, which it maps both ways
  (:func:`_gem_coordinates` and :func:`_gem_params`); its M-step jitters
  by the Kronecker updates' rule (:func:`matnorm.mle._with_jitter`).

Observations are processed in batches that share a missing entry count, so
the per observation conditioning runs as stacked array operations rather
than a Python loop over the data set.  Within a batch, observations with the
same holes share one missing precision block to factor: when a batch holds
at most half as many distinct hole sets as observations (a dropout tail, a
lost band), each distinct block is factored once and its conditional
covariance weighted by the number of observations sharing it; otherwise
every observation's block is factored on its own.  All three run the
iteration loop of :func:`matnorm.mle._iterate`: mm and em through
:func:`_fit_classes`, the one Kronecker driver, and gem directly.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    _condition_block,
    ensure_spd,
    indicator_matrix,
    spd_cholesky,
    unvec,
    vec,
)
from .mle import (
    FitConfig,
    FitResult,
    _centered,
    _check_sample_size,
    _grid_pairs,
    _initial_params,
    _iterate,
    _observed_cell_means,
    _pooled_m_step,
    _residual_rows,
    _scatter_add,
    _squarem_coordinates,
    _squarem_params,
    _with_jitter,
)
from .model import (
    DataError,
    MatrixNormalParams,
    ObservationSet,
    _log_likelihood,
    _precisions,
    _quadratic_forms,
)

# A missing-count group conditions its distinct hole sets rather than its
# members only when there are at most this share as many of them: below,
# the saved factorizations outweigh the indirection (see CHANGES.md).
_SHARED_HOLES_SHARE = 0.5


def _row_pair_bits(p: int) -> int:
    """Low bits of a hole pair's grid position that hold its row-factor position."""
    return (p * p - 1).bit_length()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class _PatternGroup:
    """Observations sharing one missing entry count, stacked for batch work.

    ``miss`` lists each member's holes, in row ``miss % p`` and column
    ``miss // p``; the fits read and write them through the flat positions
    of :class:`MissingPattern`, of which ``span`` is the group's slice, and
    read ``miss`` again only to name a singular pivot.  ``pairs`` holds,
    for every hole set the E-step factors, the packed positions of each
    pair of its holes in the two factors (see :class:`MissingPattern`).  When the group holds at most
    ``_SHARED_HOLES_SHARE`` times as many distinct hole sets as members,
    ``first`` holds the member position of the first member with each set,
    in order of appearance, ``pattern_of`` each member's index into
    ``first``, and ``pattern_counts`` how many members share each set; the
    E-step factors each distinct set once.  Otherwise all three are None
    and every member is conditioned on its own.
    """

    m: int
    obs_ids: np.ndarray  # (B,)
    miss: np.ndarray  # (B, m) positions into the stacked vector, ascending
    span: slice  # the group's holes in the pattern's flat positions
    pairs: np.ndarray  # (U, m, m) view into MissingPattern._pairs
    first: "np.ndarray | None" = None  # (U,)
    pattern_of: "np.ndarray | None" = None  # (B,)
    pattern_counts: "np.ndarray | None" = None  # (U,)


@dataclass(eq=False)
class MissingPattern:
    """Index bookkeeping for the missing entries of an observation set.

    The fitters read ``_groups``, one :class:`_PatternGroup` per missing
    entry count present, and four flat arrays that :func:`detect_pattern`
    builds in its one pass.  Holes come group after group, member after
    member, each member's in ascending stacked order: ``_at`` holds each
    hole's position in the C-ordered (n, p, q) values, ``_vec_at`` in the
    (n, pq) stacked rows, and ``_cells`` in the p x q mean.  ``_pairs``
    concatenates the groups' ``pairs``: for every hole set the E-step
    factors (each distinct set of a sharing group, else each member's), the
    position of each pair of its holes, in rows ``ra, rc`` and columns
    ``ca, cc``, packed as ``(ca * q + cc) << k | (ra * p + rc)`` with ``k =
    (p * p - 1).bit_length()``: ``pairs >> k`` is the pair's position in
    the q x q column factor and ``pairs & (2**k - 1)`` in the p x p row
    factor, which gather em's missing precision block.  Read whole, it is
    the pair's flat position on the (q * q, 2**k) conditional-covariance
    grid, each row padded from p * p to 2**k entries; a pq x pq stacked
    precision transposed to that grid's layout gives gem's missing blocks
    at the same positions.  The flat arrays stay writable: ``np.bincount``
    copies a read-only input on every call.

    The per observation views are read-only and built from the groups when
    read: ``miss[i]`` holds the ascending positions of observation i's
    missing entries within the column-stacked vector; ``rows[i]`` and
    ``cols[i]`` are the matching row and column coordinates, ``miss[i] %
    p`` and ``miss[i] // p``; ``observed[i]`` holds the other positions;
    ``row_masks[i]`` and ``col_masks[i]`` are the 0/1 selector matrices
    built from the coordinates.
    """

    p: int
    q: int
    n_obs: int
    _groups: list
    _at: np.ndarray
    _vec_at: np.ndarray
    _cells: np.ndarray
    _pairs: np.ndarray

    @property
    def any_missing(self) -> bool:
        return bool(self._groups)

    @property
    def miss(self) -> tuple:
        out = [_frozen(np.zeros(0, dtype=int))] * self.n_obs
        for g in self._groups:
            for i, entry in zip(g.obs_ids, g.miss):
                out[i] = entry
        return tuple(out)

    @property
    def rows(self) -> tuple:
        return tuple(_frozen(miss % self.p) for miss in self.miss)

    @property
    def cols(self) -> tuple:
        return tuple(_frozen(miss // self.p) for miss in self.miss)

    @property
    def observed(self) -> tuple:
        every = np.arange(self.p * self.q)
        return tuple(_frozen(np.delete(every, miss)) for miss in self.miss)

    @property
    def row_masks(self) -> tuple:
        return tuple(indicator_matrix(r, self.p) for r in self.rows)

    @property
    def col_masks(self) -> tuple:
        return tuple(indicator_matrix(c, self.q) for c in self.cols)


@dataclass(eq=False)
class ConditionalMoments:
    """Conditional completion of one observation.

    ``mean_completion`` keeps the observed entries untouched and replaces
    missing ones by their conditional means; ``cond_cov`` is the
    conditional covariance of the missing entries (scale included), ordered
    like the ascending missing positions.
    """

    mean_completion: np.ndarray
    cond_cov: np.ndarray


def _hole_sets(holes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label the rows of a boolean matrix by their distinct sets of True entries.

    Rows are packed into 64-bit words and sorted once; a stable sort puts
    each run of equal rows in observation order.  Returns each row's label
    and the first row carrying each label.
    """
    n, width = holes.shape
    words = np.zeros((n, -(-width // 64) * 8), dtype=np.uint8)
    words[:, : -(-width // 8)] = np.packbits(holes, axis=1)
    words = words.view(np.uint64)
    order = np.lexsort(words.T)
    ranked = words[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    label = np.empty(n, dtype=np.intp)
    label[order] = np.cumsum(starts) - 1
    return label, order[starts]


def detect_pattern(data: "ObservationSet | np.ndarray") -> MissingPattern:
    """Group the observations by missing entry count and index their holes.

    Groups whose members share few distinct hole sets also record them
    (see :class:`_PatternGroup`); one sort over the whole set finds them.
    The same pass writes every flat hole position the fits read (see
    :class:`MissingPattern`).
    """
    values = data.values if isinstance(data, ObservationSet) else np.asarray(data, float)
    if values.ndim != 3:
        raise ValueError(f"expected (n, p, q) values, got shape {values.shape}")
    n, p, q = values.shape
    pq = p * q
    holes = np.isnan(values).transpose(0, 2, 1).reshape(n, pq)
    counts = holes.sum(axis=1)
    blank = np.flatnonzero(counts == pq)
    if blank.size:
        raise DataError(f"observation {int(blank[0])} has no observed entries")
    label, lead = _hole_sets(holes)
    lead_counts = counts[lead]
    distinct = np.bincount(lead_counts, minlength=pq + 1)
    sizes = np.bincount(counts, minlength=pq + 1)
    # Members ranked by missing count, each group a contiguous run; every
    # hole's positions in each layout, group after group, member after member.
    order = np.argsort(counts, kind="stable")
    member, miss_all = np.nonzero(holes[order])
    base = order[member] * pq
    cols, rows = np.divmod(miss_all, p)
    cells = rows * q + cols
    shared = distinct <= _SHARED_HOLES_SHARE * sizes
    held = np.where(shared, distinct, sizes)
    bits = _row_pair_bits(p)
    pairs = np.empty(int(held @ np.arange(pq + 1) ** 2), dtype=np.intp)
    start, lo, pair_lo = sizes[0], 0, 0
    groups = []
    for m in np.flatnonzero(sizes[1:]) + 1:
        b = sizes[m]
        ids = order[start : start + b]
        span = slice(lo, lo + b * m)
        start, lo = start + b, lo + b * m
        set_cols, set_rows = cols[span].reshape(b, m), rows[span].reshape(b, m)
        sharing = ()
        if shared[m]:
            sets = np.flatnonzero(lead_counts == m)
            sets = sets[np.argsort(lead[sets])]
            local = np.empty(lead.size, dtype=np.intp)
            local[sets] = np.arange(sets.size)
            pattern_of = local[label[ids]]
            first = np.searchsorted(ids, lead[sets])
            sharing = (first, pattern_of, np.bincount(pattern_of, minlength=sets.size))
            set_cols, set_rows = set_cols[first], set_rows[first]
        view = pairs[pair_lo : pair_lo + held[m] * m * m].reshape(-1, m, m)
        pair_lo += view.size
        np.left_shift(_grid_pairs(set_cols, q), bits, out=view)
        view |= _grid_pairs(set_rows, p)
        miss = _frozen(miss_all[span].reshape(b, m))
        groups.append(_PatternGroup(int(m), _frozen(ids), miss, span, view, *map(_frozen, sharing)))
    return MissingPattern(p, q, n, groups, base + cells, base + miss_all, cells, pairs)


def conditional_moments(
    x: np.ndarray,
    params: MatrixNormalParams,
    miss: "np.ndarray | None" = None,
) -> ConditionalMoments:
    """Condition one observation's missing entries on its observed ones.

    ``miss`` lists positions into the column-stacked vector; by default it
    is read off the NaN entries of ``x``.  This is the one-observation call
    of :func:`_e_step`, the E-step that :func:`fit_em` runs: the missing
    block of the scale free precision ``kron(inv(col_cov), inv(row_cov))``
    is gathered from the two factor inverses, its inverse is the scale
    free conditional covariance, and the regression of missing on observed
    comes from the residual weighted by both factor inverses, so neither
    the pq x pq precision nor the pq x pq covariance is ever formed.
    """
    x = np.asarray(x, dtype=float)
    p, q = params.p, params.q
    if x.shape != (p, q):
        raise ValueError(
            f"observation shape {x.shape} does not match parameters ({p}, {q})"
        )
    x_vec = x.ravel(order="F")
    if miss is None:
        miss = np.flatnonzero(np.isnan(x_vec))
    else:
        given = np.asarray(miss)
        if given.ndim != 1 or given.size and given.dtype.kind not in "iu":
            raise ValueError(
                "missing positions must be a 1-d list of integers, "
                f"got {given.tolist()}"
            )
        miss = np.sort(given.astype(int))
        bad = miss[(miss < 0) | (miss >= p * q)]
        if bad.size:
            raise ValueError(f"missing position {bad[0]} is outside 0..{p * q - 1}")
        twice = miss[1:][miss[1:] == miss[:-1]]
        if twice.size:
            raise ValueError(f"missing position {twice[0]} is listed more than once")
    if miss.size == p * q:
        raise DataError("observation has no observed entries")
    unlisted = np.isnan(x_vec)
    unlisted[miss] = False
    if unlisted.any():
        raise DataError("entries outside the missing set must be observed")
    if miss.size == 0:
        return ConditionalMoments(x.copy(), np.zeros((0, 0)))

    holed = x.copy()
    holed[miss % p, miss // p] = np.nan
    completions, (free,), _ = _e_step(holed[None], detect_pattern(holed[None]), params)
    return ConditionalMoments(completions[0], params.scale * free[0])


def _condition_holes(
    pattern: MissingPattern, h: np.ndarray, gather
) -> tuple[np.ndarray, list, float]:
    """Condition every hole of a pattern on its observation's observed entries.

    ``h`` holds each hole's ``Omega_mo @ r_o`` in the pattern's hole
    order, and ``gather(pairs)`` the scale free precision at a group's
    (U, m, m) grid positions; each group goes through one
    :func:`~matnorm.linalg._condition_block`.  Returns the
    shifts in the order of ``h``, each group's free blocks, and the summed
    log determinants of the missing precision blocks.
    """
    shift = np.empty_like(h)
    free_by_group, block_logdet = [], 0.0
    for g in pattern._groups:
        g_shift, free, logdet = _condition_block(
            gather(g.pairs), h[g.span].reshape(-1, g.m), g.miss, g.first, g.pattern_of
        )
        shift[g.span] = g_shift.ravel()
        free_by_group.append(free)
        block_logdet += logdet.sum()
    return shift, free_by_group, float(block_logdet)


def _e_step(
    values: np.ndarray, pattern: MissingPattern, params: MatrixNormalParams
) -> tuple[np.ndarray, list, float]:
    """Completions, per-group conditional covariances, observed log likelihood.

    One pass over all n observations: the residual with zeros at the holes,
    R0, is weighted once as ``row_prec @ R0 @ col_prec``, every hole's
    ``h = Omega_mo @ r_o`` is read off that product in one gather, and each
    missing-count group gathers its missing precision blocks from the two
    factors and goes through one call of the block kernel; the pq x pq
    precision is never formed.  All reads and writes go through the flat
    positions ``_at`` and ``_cells`` that :func:`detect_pattern` built.
    With every shift written into the residual, one quadratic form over all
    n gives each observed block's marginal form, and the log determinants
    of the missing precision blocks correct the full covariance determinant
    to the marginal ones.
    """
    n, p, q = values.shape
    (row_prec, row_logdet), (col_prec, col_logdet) = _precisions(params)
    resid = values - params.mean
    np.put(resid, pattern._at, 0.0)
    h = np.take(row_prec @ resid @ col_prec, pattern._at)

    bits = _row_pair_bits(p)
    row_mask = (1 << bits) - 1

    def gather(pairs):
        return np.take(col_prec, pairs >> bits) * np.take(row_prec, pairs & row_mask)

    shift, free_by_group, block_logdet = _condition_holes(pattern, h, gather)
    completions = values.copy()
    np.put(completions, pattern._at, np.take(params.mean, pattern._cells) + shift)
    np.put(resid, pattern._at, shift)
    dist = _quadratic_forms(resid, row_prec, col_prec)
    loglik = (
        -0.5 * (n * p * q - h.size) * math.log(2.0 * math.pi * params.scale)
        - 0.5 * n * (p * col_logdet + q * row_logdet)
        - 0.5 * block_logdet
        - 0.5 * dist.sum() / params.scale
    )
    return completions, free_by_group, float(loglik)


def _conditional_grid(
    pattern: MissingPattern, free_by_group: "list | None"
) -> "np.ndarray | None":
    """Every scale free conditional covariance, summed once onto one grid.

    Entry ``[ca, cc, ra, rc]`` of the (q, q, p, p) grid sums the conditional
    covariance between the holes at (ra, ca) and (rc, cc) over all
    observations: gem's accumulated conditional covariance without the
    scale, its entries reordered so that each factor's precision contracts
    it in one matrix-vector product.  A shared hole set is summed once,
    weighted by its member count, and one scatter serves every group.  The
    scatter lands at the packed pair positions of :class:`MissingPattern`,
    on a (q * q, 2**k) grid whose rows are padded past p * p; the grid
    returned is the view of its first p * p columns.  None when nothing is
    missing: no groups, or None for a class without holes (:func:`_held`).
    """
    if not free_by_group:
        return None
    mass = np.concatenate(
        [
            free.ravel() if g.first is None
            else (g.pattern_counts[:, None, None] * free[g.first]).ravel()
            for g, free in zip(pattern._groups, free_by_group)
        ]
    )
    p, q = pattern.p, pattern.q
    grid = _scatter_add(pattern._pairs, mass, (q * q, 1 << _row_pair_bits(p)))
    return grid[:, : p * p].reshape(q, q, p, p)


def _held(values: np.ndarray) -> "MissingPattern | tuple":
    """A class's :func:`detect_pattern`; without holes, (mean, residual rows, count)."""
    if np.isnan(values).any():
        return detect_pattern(values)
    mean, resid, n = _centered(values)
    return mean, _residual_rows(resid), n


def _class_e_step(values: np.ndarray, held, params: MatrixNormalParams) -> tuple:
    """One class's E-step: :func:`_e_step` when it has holes, else its rows.

    A class without holes hands on its :func:`_held` tuple as completions and
    no conditional covariances.  Its forms over the rows plus n times the form
    of the sample mean's offset from ``params.mean`` sum the n observations'.
    """
    if isinstance(held, MissingPattern):
        return _e_step(values, held, params)
    mean, rows, n = held
    (row_prec, row_logdet), (col_prec, col_logdet) = _precisions(params)
    dist = np.sum(_quadratic_forms(rows, row_prec, col_prec))
    dist += n * _quadratic_forms(mean - params.mean, row_prec, col_prec)
    return held, None, float(_log_likelihood(dist, n, params, row_logdet, col_logdet))


def _fit_classes(class_values: list, cfg: FitConfig, start: float) -> tuple[list, list, FitResult]:
    """The Kronecker EM of K classes that share one row factor.

    The one Kronecker driver, behind :func:`~matnorm.mle.fit_mle`,
    :func:`fit_mm` and :func:`fit_em` (one class) and
    :func:`~matnorm.spectral.fit_class_models`: each E-step sums
    :func:`_class_e_step` over the classes, each M-step is
    :func:`~matnorm.mle._pooled_m_step` on every class's conditional grid,
    a step is measured on :func:`~matnorm.mle._squarem_coordinates`, and
    the loop extrapolates on them, back through
    :func:`~matnorm.mle._squarem_params`, when any class has holes, where
    they slow the ascent.  ``start`` is the caller's entry time.  Returns
    each class's parameters, its completions (a class without holes, its
    values), and the fit record.
    """
    held = [_held(values) for values in class_values]

    def e_step(sets):
        completions, frees, logliks = zip(*map(_class_e_step, class_values, held, sets))
        return completions, frees, sum(logliks)

    def m_step(sets, moments):
        grids = [_conditional_grid(pt, fr) for pt, fr in zip(held, moments[1])]
        return _pooled_m_step(grids, moments[0], sets)

    holes = [pt._at.size for pt in held if isinstance(pt, MissingPattern)]
    point = _squarem_params if holes else None
    initial = [_initial_params(values) for values in class_values]
    entries = sum(values.size for values in class_values) - sum(holes)
    sets, (completions, _, _), result = _iterate(
        e_step, m_step, _squarem_coordinates, initial, entries, cfg, start, point
    )
    completions = [v if isinstance(c, tuple) else c for v, c in zip(class_values, completions)]
    return sets, completions, result


def _fit_one_class(values: np.ndarray, cfg: FitConfig, start: float) -> FitResult:
    """:func:`_fit_classes` on one class, after the sample size check."""
    p, q = values.shape[1:]
    _check_sample_size(values, max(p, q), f"a {p} x {q} model")
    (params,), _, result = _fit_classes([values], cfg, start)
    result.params = params
    return result


def fit_em(data: ObservationSet, config: "FitConfig | None" = None) -> FitResult:
    """Kronecker structured EM fit tolerating missing entries.

    :func:`_fit_classes` with one class, so on complete data it is
    :func:`~matnorm.mle.fit_mle`, bit for bit.  The trace records the
    observed log likelihood at the initial parameters and after each
    update; it is non-decreasing up to roundoff.
    """
    start = time.perf_counter()
    return _fit_one_class(data.values, config or FitConfig(), start)


def _mean_filled(values: np.ndarray) -> np.ndarray:
    """``values`` with every hole at its cell's observed mean."""
    holes = np.isnan(values)
    return np.where(holes, _observed_cell_means(values), values) if holes.any() else values


def fit_mm(data: ObservationSet, config: "FitConfig | None" = None) -> FitResult:
    """Mean imputation followed by the complete data fit.

    The observed per-cell means are a fixed point of re-imputation: filling
    a cell with its observed mean leaves the completed data's cell mean at
    that same value, so the fill never changes across passes and a single
    fill followed by the complete data fit realizes the whole iteration,
    which :func:`_fit_classes` runs as :func:`~matnorm.mle.fit_mle` does.
    The trace is the complete data log likelihood of the filled set.
    """
    start = time.perf_counter()
    return _fit_one_class(_mean_filled(data.values), config or FitConfig(), start)


@dataclass(eq=False)
class UnstructuredParams:
    """Mean vector and free pq x pq covariance of the stacked observations."""

    p: int
    q: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        d = self.p * self.q
        if self.mean.shape != (d,):
            raise ValueError(f"mean must have shape ({d},), got {self.mean.shape}")
        self.cov = ensure_spd(self.cov, "covariance")
        if self.cov.shape != (d, d):
            raise ValueError(f"covariance must be {d} x {d}, got {self.cov.shape}")

    def mean_matrix(self) -> np.ndarray:
        """The mean restored to its p x q matrix layout."""
        return unvec(self.mean, self.p, self.q)


def _gem_e_step(
    vdata: np.ndarray,
    pattern: MissingPattern,
    mean: np.ndarray,
    cov: np.ndarray,
    chol: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Completions, accumulated conditional covariance, observed loglik.

    :func:`_e_step` with the precision ``s * inv(cov)``, ``s = trace(cov) /
    d``, so that the kernel's absolute pivot floor meets blocks of one size
    whatever the data's units.  ``chol``, the lower Cholesky factor of
    ``cov``, comes from the M-step that checked it or is taken here.
    Transposed from (q, p, q, p) and padded like the conditional-covariance
    grid of :func:`_conditional_grid`, the precision has that grid's
    layout, where the hole pairs gather the missing blocks; the holes'
    positions in the stacked rows, ``_vec_at``, read ``h``.
    Roundoff in the explicit precision leaves the shifts off as ``cov``
    nears singular, so two Newton steps with gradients taken through
    ``chol`` refine them.  The observed block's log determinant is ``log
    det Sigma + log det P_mm``, accurate where ``-log det Sigma_mm.o`` is
    not; with every hole at its conditional mean, a completed row's
    quadratic form under ``cov`` is its observed block's, so one triangular
    solve with ``chol`` gives every form.
    """
    n, d = vdata.shape
    p, q, at = pattern.p, pattern.q, pattern._vec_at
    if chol is None:
        chol = spd_cholesky(cov)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    s = float(np.sum(chol * chol)) / d
    root = scipy.linalg.solve_triangular(chol, np.eye(d), lower=True)
    prec = s * (root.T @ root)
    grid = np.zeros((q * q, 1 << _row_pair_bits(p)))
    grid[:, : p * p] = prec.reshape(q, p, q, p).transpose(0, 2, 1, 3).reshape(q * q, p * p)
    resid = vdata - mean
    np.put(resid, at, 0.0)
    shift, free_by_group, block_logdet = _condition_holes(
        pattern, np.take(resid @ prec, at), grid.take
    )
    np.put(resid, at, shift)
    for _ in range(2):
        g = s * np.take(scipy.linalg.cho_solve((chol, True), resid.T).T, at)
        for grp, free in zip(pattern._groups, free_by_group):
            shift[grp.span] -= (free @ g[grp.span].reshape(-1, grp.m, 1)).ravel()
        np.put(resid, at, shift)
    completions = vdata.copy()
    np.put(completions, at, np.take(mean, at % d) + shift)
    white = scipy.linalg.solve_triangular(chol, resid.T, lower=True)
    mass = _conditional_grid(pattern, free_by_group)
    extra = np.zeros((d, d)) if mass is None else s * mass.transpose(0, 2, 1, 3).reshape(d, d)
    loglik = (
        -0.5 * (n * d - at.size) * math.log(2.0 * math.pi)
        - 0.5 * (n * logdet + block_logdet - at.size * math.log(s))
        - 0.5 * float(np.sum(white * white))
    )
    return completions, extra, loglik


def _gem_coordinates(params: tuple, like: tuple) -> np.ndarray:
    """gem's coordinates ``(mean / sqrt(s), cov / s)`` on the reference set ``like``.

    ``s`` is the largest variance, and so the largest entry, of its covariance.
    """
    s = float(like[1].diagonal().max())
    return np.concatenate([params[0] / math.sqrt(s), params[1].ravel() / s])


def _gem_factored(cov: np.ndarray) -> "tuple | None":
    """``(cov, chol)`` with the lower Cholesky factor that checks ``cov``, or None."""
    try:
        return cov, spd_cholesky(cov)
    except np.linalg.LinAlgError:
        return None


def _gem_params(x: np.ndarray, like: tuple) -> "tuple | None":
    """The gem set at ``x`` on :func:`_gem_coordinates` on ``like``.

    The covariance is symmetrized and checked by :func:`_gem_factored`
    before the scale goes back on; the set carries that Cholesky factor to
    :func:`_gem_e_step`.  None when the covariance does not factor.
    """
    d = like[0].size
    shape = x[d:].reshape(d, d)
    factored = _gem_factored((shape + shape.T) / 2.0)
    if factored is None:
        return None
    shape, chol = factored
    s = float(like[1].diagonal().max())
    root = math.sqrt(s)
    return x[:d] * root, shape * s, chol * root


def fit_gem(
    data: ObservationSet, config: "FitConfig | None" = None
) -> tuple[UnstructuredParams, FitResult]:
    """Unstructured multivariate normal EM on the stacked observations.

    Ignores the Kronecker structure entirely, which makes it the slowest of
    the three fitters and the hungriest for data (the covariance has
    pq(pq+1)/2 free entries); with more observations than pq it can resolve
    structure the factored model cannot.  With holes, each plain update is
    followed by the loop's squared extrapolation on
    :func:`_gem_coordinates`, back through :func:`_gem_params`, kept only
    when one update from it ends no lower, so the trace ascends and counts
    accepted extrapolated entries as em's does; complete data take plain
    steps, and reach the sample moments in one.  A covariance update that
    fails to factor gets one diagonal boost
    (:func:`~matnorm.mle._with_jitter`).  Returns the parameter estimate
    together with fit metadata whose ``params`` field is None, since the
    output is not a matrix normal parameter set.
    """
    start = time.perf_counter()
    cfg = config or FitConfig()
    values = data.values
    pattern = detect_pattern(data)
    n, p, q = values.shape
    d = p * q
    _check_sample_size(values, d, f"an unstructured {p} x {q} model")
    vdata = values.transpose(0, 2, 1).reshape(n, d)
    mean = vec(_observed_cell_means(values))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        sq_dev = float(np.nanmean((vdata - mean) ** 2))
    cov = (sq_dev if sq_dev > 0 else 1.0) * np.eye(d)

    def e_step(params):
        return _gem_e_step(vdata, pattern, *params)

    def m_step(params, moments):
        completions, extra, _ = moments
        mean_new = completions.mean(axis=0)
        resid = completions - mean_new
        cov_new = (resid.T @ resid + extra) / n
        cov_new = (cov_new + cov_new.T) / 2.0
        (cov_new, chol), _ = _with_jitter(cov_new, _gem_factored, "covariance")
        return mean_new, cov_new, chol

    point = _gem_params if pattern.any_missing else None
    entries = values.size - pattern._at.size
    (mean, cov, _), _, result = _iterate(
        e_step, m_step, _gem_coordinates, (mean, cov, None), entries, cfg, start, point
    )
    return UnstructuredParams(p=p, q=q, mean=mean, cov=cov), result
