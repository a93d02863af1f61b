"""Estimation with missing entries.

Three fitters cover the usual quality/cost trade:

* :func:`fit_mm` fills each missing cell with that cell's observed mean and
  runs the complete data fit on the filled set.  Cheap, and biased: imputed
  cells sit exactly at the mean, so spread is understated.
* :func:`fit_em` is expectation-maximization under the Kronecker structure.
  The E-step conditions each observation's missing block on its observed
  block under the scale free precision ``kron(inv(col_cov), inv(row_cov))``
  without forming that pq x pq matrix: the missing block of the precision
  is gathered entrywise from the two factor inverses, and sweeping its
  pivots gives the conditional mean, the conditional covariance, and the
  observed likelihood term, at the cost of an m x m inverse per distinct
  set of m missing entries.  Below 7 holes
  (:data:`matnorm.linalg._POTRI_MIN_HOLES`) each missing-count group's
  blocks are swept all at once, m vectorized steps over the stack; from 7
  up a batched Cholesky factor gives the pivots and LAPACK ``dpotri``
  inverts each block from it in place.  The E-step makes one pass over
  the data with the factor inverses the last M-step handed on, so each
  factor is factored once per parameter set; a fit of several classes
  (:mod:`matnorm.spectral`) conditions them all in that pass, with one
  kernel call per missing count for the hole sets of every class.  Near
  singular factors it refines its conditional means
  (:data:`_REFINE_COND`).  At the identity
  start every missing block is the identity, so the first E-step of a fit
  conditions nothing (:func:`_start_e_step`).  The E-step reads and writes
  the holes through the flat positions that :func:`detect_pattern` builds
  in its one pass over the mask, which also locate each hole set's missing
  precision block in the two factors: one integer per pair of holes, whose
  high bits a shift reads as the pair's column-factor position and whose
  low bits a mask reads as its row-factor position.  The M-step is the complete data
  update of :mod:`matnorm.mle` on the completions, plus the conditional
  covariances: one scatter sums them all onto a single
  conditional-covariance grid, which each factor update contracts with the
  other factor's precision.  em is :func:`_fit_classes` with one class,
  the driver that also fits the class model of :mod:`matnorm.spectral`.
  It follows each plain update with a squared extrapolation along the last
  two, which the loop takes on the Kronecker coordinates and maps back
  through :func:`matnorm.mle._squarem_params`, kept only when one update
  from it ends no lower; this takes about a third fewer E-steps to the same
  tolerance.
* :func:`fit_gem` is the classical EM for an unstructured multivariate
  normal on the stacked vectors: pq(pq+1)/2 free covariance entries, no
  Kronecker assumption.  The flexible baseline, and the slowest: each
  E-step pays for a pq x pq precision.  That model is the matrix normal
  of one row, whose column factor times the scale is the covariance of
  the stacked vector, so gem is :func:`_fit_classes` on the 1 x pq rows
  of the stacked observations, E-step, M-step, extrapolation and jitter
  included.

Observations are processed in batches that share a missing entry count, so
the per observation conditioning runs as stacked array operations rather
than a Python loop over the data set; the batches of one count in every
class of a fit are stacked class after class into one call of the block
kernel, so an E-step makes one kernel call per missing count present
whatever the number of classes.  Within a batch, observations with the
same holes share one missing precision block to factor: when a batch holds
at most half as many distinct hole sets as observations (a dropout tail, a
lost band), each distinct block is factored once and its conditional
covariance weighted by the number of observations sharing it; otherwise
every observation's block is factored on its own.  All three run
:func:`_fit_classes`, the one Kronecker driver and the one caller of the
iteration loop :func:`matnorm.mle._iterate`.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .linalg import (
    _condition_block,
    ensure_spd,
    indicator_matrix,
    lower_solve,
    spd_cholesky,
    spd_solve,
    unvec,
)
from .mle import (
    FitConfig,
    FitResult,
    _centered,
    _check_sample_size,
    _grid_pairs,
    _identity_start,
    _initial_params,
    _iterate,
    _observed_cell_means,
    _pooled_m_step,
    _residual_rows,
    _scatter_add,
    _squarem_coordinates,
    _squarem_params,
)
from .model import (
    DataError,
    MatrixNormalParams,
    ObservationSet,
    _log_likelihood,
    _precisions,
    _quadratic_forms,
)

# The E-step refines its shifts by two Newton steps, and whitens its forms,
# through the factors' Cholesky factors when their 1-norm condition product
# exceeds this; CHANGES.md holds the error ladder behind the value.
_REFINE_COND = 1e6

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
    entry count present, and three flat arrays that :func:`detect_pattern`
    builds in its one pass.  Holes come group after group, member after
    member, each member's in ascending stacked order: ``_at`` holds each
    hole's position in the C-ordered (n, p, q) values and ``_cells`` in
    the p x q mean.  ``_pairs`` concatenates the groups' ``pairs``: for
    every hole set the E-step factors (each distinct set of a sharing
    group, else each member's), the position of each pair of its holes, in
    rows ``ra, rc`` and columns ``ca, cc``, packed as ``(ca * q + cc) << k
    | (ra * p + rc)`` with ``k = (p * p - 1).bit_length()``: ``pairs >>
    k`` is the pair's position in
    the q x q column factor and ``pairs & (2**k - 1)`` in the p x p row
    factor, which gather the missing precision block.  Read whole, it is
    the pair's flat position on the (q * q, 2**k) conditional-covariance
    grid, each row padded from p * p to 2**k entries.  The flat arrays stay
    writable: ``np.bincount`` copies a read-only input on every call.

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
    return MissingPattern(p, q, n, groups, base + cells, cells, pairs)


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


@dataclass(eq=False)
class _Stack:
    """One missing count's groups of several classes, as one kernel call takes them.

    ``parts`` holds (class, group) for each class with a group of ``m``
    holes, in class order, and ``bounds`` each part's (start, stop) members
    in the stack.  ``miss``, ``first`` and ``pattern_of`` stack the groups'
    arrays (see :class:`_PatternGroup`), ``first`` offset by the members
    and ``pattern_of`` by the hole sets of the classes before; a group that
    shares no sets points each member at its own, and both are None when
    no group shares.
    """

    m: int
    parts: list
    bounds: list
    miss: np.ndarray
    first: "np.ndarray | None"
    pattern_of: "np.ndarray | None"


def _stacks(patterns) -> list:
    """The :class:`_Stack` of each missing count present in any of ``patterns``, by count."""
    by_count = {}
    for k, pt in enumerate(patterns):
        for g in pt._groups:
            by_count.setdefault(g.m, []).append((k, g))
    stacks = []
    for m in sorted(by_count):
        parts = by_count[m]
        bounds, first, pattern_of, members, sets = [], [], [], 0, 0
        for _, g in parts:
            own = np.arange(len(g.miss))
            bounds.append((members, members + own.size))
            first.append(members + (own if g.first is None else g.first))
            pattern_of.append(sets + (own if g.pattern_of is None else g.pattern_of))
            members, sets = members + own.size, sets + len(g.pairs)
        shared = any(g.first is not None for _, g in parts)
        stacks.append(_Stack(
            m, parts, bounds, np.concatenate([g.miss for _, g in parts]),
            *(map(np.concatenate, (first, pattern_of)) if shared else (None, None)),
        ))
    return stacks


def _e_step(values, pattern, params, stacks: "list | None" = None) -> "tuple | list":
    """Completions, per-group conditional covariances, observed log likelihood.

    Given one class (its values, :class:`MissingPattern` and parameters)
    this returns its triple; given a sequence of each, the list of their
    triples, class by class.  One pass: each class's residual with zeros at
    the holes, R0, is weighted once as ``row_prec @ R0 @ col_prec`` and
    every hole's ``h = Omega_mo @ r_o`` read off it in one gather; each
    group gathers its missing precision blocks from the two factors at its
    packed pair positions, and each missing count present in any class goes
    through one call of the block kernel,
    :func:`~matnorm.linalg._condition_block`, on every class's blocks of
    that count, stacked class after class (``stacks``, :func:`_stacks` of
    the patterns, which a fit builds once).  Each block is factored as it
    would be alone, so each class's triple is bit for bit its own call's,
    except where a block fails: a Cholesky failure in any class sends the
    whole stack through the sweep, and a singular pivot is named for the
    first in the merged stack's sweep order.  With the shifts written into
    the residual, one quadratic form over a class gives each observed
    block's marginal form, and the missing blocks' log determinants
    correct the full determinant to the marginal ones.  Past
    ``_REFINE_COND`` two Newton steps through the factors' Cholesky factors
    refine the shifts, which the explicit inverses leave off, and the same
    factors whiten the forms.  The pq x pq precision is never formed.
    """
    one = isinstance(pattern, MissingPattern)
    if one:
        values, pattern, params = (values,), (pattern,), (params,)
    precs, resids, hs, shifts, frees = [], [], [], [], []
    for vals, pt, prm in zip(values, pattern, params):
        precs.append(_precisions(prm))
        (row_prec, _), (col_prec, _) = precs[-1]
        resids.append(vals - prm.mean)
        np.put(resids[-1], pt._at, 0.0)
        hs.append(np.take(row_prec @ resids[-1] @ col_prec, pt._at))
        shifts.append(np.empty_like(hs[-1]))
        frees.append([])
    block_logdets = [0.0] * len(hs)
    bits = _row_pair_bits(pattern[0].p)
    row_mask = (1 << bits) - 1

    def gathered(k, g):
        (row_prec, _), (col_prec, _) = precs[k]
        return np.take(col_prec, g.pairs >> bits) * np.take(row_prec, g.pairs & row_mask)

    for stack in _stacks(pattern) if stacks is None else stacks:
        if len(stack.parts) == 1:
            # a count present in one class: nothing to stack or split
            ((k, g),) = stack.parts
            shift, free, logdet = _condition_block(
                gathered(k, g), hs[k][g.span].reshape(-1, g.m), g.miss, g.first, g.pattern_of
            )
            shifts[k][g.span] = shift.ravel()
            frees[k].append(free)
            block_logdets[k] += logdet.sum()
            continue
        shift, free, logdet = _condition_block(
            np.concatenate([gathered(k, g) for k, g in stack.parts]),
            np.concatenate([hs[k][g.span] for k, g in stack.parts]).reshape(-1, stack.m),
            stack.miss, stack.first, stack.pattern_of,
        )
        for (k, g), (lo, hi) in zip(stack.parts, stack.bounds):
            shifts[k][g.span] = shift[lo:hi].ravel()
            frees[k].append(free[lo:hi])
            block_logdets[k] += logdet[lo:hi].sum()

    out = []
    for vals, pt, prm, prec, resid, h, shift, free_by_group, block_logdet in zip(
        values, pattern, params, precs, resids, hs, shifts, frees, block_logdets
    ):
        n, p, q = vals.shape
        (row_prec, row_logdet), (col_prec, col_logdet) = prec
        np.put(resid, pt._at, shift)
        # An SPD matrix has its largest entry on its diagonal, so the product of
        # the four diagonal maxima bounds the 1-norm condition product from
        # below and, times (pq)**2, from above: only a close call sums columns.
        factors = (prm.row_cov, row_prec, prm.col_cov, col_prec)
        cond = math.prod(a.diagonal().max() for a in factors)
        if cond * (p * q) ** 2 > _REFINE_COND:
            cond = math.prod(np.abs(a).sum(axis=0).max() for a in factors)
        if cond > _REFINE_COND:
            chols = spd_cholesky(prm.row_cov), spd_cholesky(prm.col_cov)

            def through(solve, r):
                # solve(L, .) with each factor's Cholesky L on both sides of every
                # residual; returns the (q, n * p) transpose of the (n, p, q) result
                x = solve(chols[0], r.transpose(1, 0, 2).reshape(p, n * q))
                return solve(chols[1], x.reshape(p, n, q).transpose(1, 0, 2).reshape(n * p, q).T)

            for _ in range(2):
                grad = np.take(through(spd_solve, resid).T, pt._at)
                for g, free in zip(pt._groups, free_by_group):
                    shift[g.span] -= (free @ grad[g.span].reshape(-1, g.m, 1)).ravel()
                np.put(resid, pt._at, shift)
            dist = float(np.sum(through(lower_solve, resid) ** 2))
        else:
            dist = float(np.sum(_quadratic_forms(resid, row_prec, col_prec)))
        completions = vals.copy()
        np.put(completions, pt._at, np.take(prm.mean, pt._cells) + shift)
        loglik = (
            -0.5 * (n * p * q - h.size) * math.log(2.0 * math.pi * prm.scale)
            - 0.5 * n * (p * col_logdet + q * row_logdet)
            - 0.5 * block_logdet
            - 0.5 * dist / prm.scale
        )
        out.append((completions, free_by_group, float(loglik)))
    return out[0] if one else out


def _conditional_grid(
    pattern: MissingPattern, free_by_group: "list | None"
) -> "np.ndarray | None":
    """Every scale free conditional covariance, summed once onto one grid.

    Entry ``[ca, cc, ra, rc]`` of the (q, q, p, p) grid sums the conditional
    covariance between the holes at (ra, ca) and (rc, cc) over all
    observations: the summed conditional covariance of the stacked vectors
    without the scale, its entries reordered so that each factor's
    precision contracts it in one matrix-vector product.  A shared hole set
    is summed once, weighted by its member count, and one scatter serves
    every group.  The scatter lands at the packed pair positions of :class:`MissingPattern`,
    on a (q * q, 2**k) grid whose rows are padded past p * p; the grid
    returned is the view of its first p * p columns.  None when nothing is
    missing: no groups, or None for a class without holes (:func:`_complete`).
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


def _complete(values: np.ndarray) -> tuple:
    """A class without holes as a fit holds it: (values, (mean, residual rows, count)).

    The inner tuple is all a fit reads of a class without holes: its start,
    the completions every E-step hands on, and the count that weighs its
    log likelihood (see :func:`_fit_classes`).  The caller has already
    established that ``values`` has no holes, so this does not scan for them.
    """
    mean, resid, n = _centered(values)
    return values, (mean, _residual_rows(resid), n)


def _held(values: np.ndarray) -> tuple:
    """A class as a fit holds it: (values, its :func:`detect_pattern`), or :func:`_complete`.

    The one scan for holes of a class whose values may have them.
    """
    if np.isnan(values).any():
        return values, detect_pattern(values)
    return _complete(values)


def _class_e_step(values: np.ndarray, held, params: MatrixNormalParams) -> tuple:
    """The E-step of a class without holes in a fit where some class has holes.

    The class hands on its (mean, rows, count) tuple from :func:`_complete`
    as completions and no conditional covariances; an extrapolated set is
    no maximum, so its log likelihood sums the forms over the rows plus n
    times the form of the sample mean's offset from ``params.mean``, which
    together are the n observations'.
    """
    mean, rows, n = held
    (row_prec, row_logdet), (col_prec, col_logdet) = _precisions(params)
    dist = np.sum(_quadratic_forms(rows, row_prec, col_prec))
    dist += n * _quadratic_forms(mean - params.mean, row_prec, col_prec)
    return held, None, float(_log_likelihood(dist, n, params, row_logdet, col_logdet))


def _start_e_step(values: np.ndarray, held, params: MatrixNormalParams) -> tuple:
    """A class's E-step at its :func:`~matnorm.mle._initial_params`, conditioning nothing.

    Both factors are the identity there, and so are their inverses, with log
    determinant 0.  So every ``h`` is 0 and every missing precision block is
    the identity, as is its inverse: each shift is 0, the completions are
    the mean fill, each free block is the identity, and the observed log
    likelihood is that of the observed residuals under the scale alone.
    This is bit for bit what :func:`_e_step` returns there: its products
    with the identity factors are exact, and the forms are summed here in
    the same order.  A class without holes goes to :func:`_class_e_step`.
    """
    if not isinstance(held, MissingPattern):
        return _class_e_step(values, held, params)
    n, p, q = values.shape
    completions = values.copy()
    np.put(completions, held._at, np.take(params.mean, held._cells))
    resid = completions - params.mean
    frees = [np.broadcast_to(np.eye(g.m), (g.obs_ids.size, g.m, g.m)) for g in held._groups]
    dist = float(np.sum(np.sum(resid * resid, axis=(-2, -1))))
    loglik = (
        -0.5 * (n * p * q - held._at.size) * math.log(2.0 * math.pi * params.scale)
        - 0.5 * dist / params.scale
    )
    return completions, frees, loglik


def _fit_classes(classes: list, cfg: FitConfig, start: float) -> tuple[list, list, FitResult]:
    """The Kronecker EM of K classes that share one row factor.

    The one Kronecker driver, behind :func:`~matnorm.mle.fit_mle`,
    :func:`fit_mm` and :func:`fit_em` (one class) and
    :func:`~matnorm.spectral.fit_class_models`: each M-step is
    :func:`~matnorm.mle._pooled_m_step` on every class's conditional grid,
    and a step is measured on :func:`~matnorm.mle._squarem_coordinates`.
    When any class has holes, the fit starts from
    :func:`~matnorm.mle._initial_params`, whose E-step
    :func:`_start_e_step` takes in closed form, each later E-step is one
    :func:`_e_step` call on every class with holes, which conditions each
    missing count's hole sets of all those classes in one kernel call, and
    :func:`_class_e_step` on each class without, its log likelihood summed
    in class order, and the loop extrapolates on
    those coordinates, back through :func:`~matnorm.mle._squarem_params`,
    where holes slow the ascent.
    Without holes the fit is the flip-flop: each class starts from its
    (mean, rows, count) tuple from :func:`_complete` and no E-step reads
    the data.  ``classes`` holds each class as :func:`_held` or, when the
    caller has ruled out holes, :func:`_complete` returns it, so each class
    is scanned for holes once per fit.  ``start`` is the caller's entry time.  Returns each
    class's parameters, its completions (a class without holes, its
    values), and the fit record.
    """
    class_values, held = zip(*classes)

    def m_step(sets, moments):
        grids = [_conditional_grid(pt, fr) for pt, fr in zip(held, moments[1])]
        return _pooled_m_step(grids, moments[0], sets)

    holed = [isinstance(pt, MissingPattern) for pt in held]
    patterns = list(compress(held, holed))
    if patterns:
        initial = [_initial_params(values) for values in class_values]
        holed_values = list(compress(class_values, holed))
        complete = [k for k, has in enumerate(holed) if not has]
        stacks = _stacks(patterns)

        def e_step(sets):
            if sets is initial:
                moments = map(_start_e_step, class_values, held, sets)
            else:
                moments = _e_step(holed_values, patterns, list(compress(sets, holed)), stacks)
                for k in complete:  # ascending, so each lands at its class's place
                    moments.insert(k, _class_e_step(class_values[k], held[k], sets[k]))
            completions, frees, logliks = zip(*moments)
            return completions, frees, sum(logliks)

    else:
        # Every set this loop evaluates is the start or a _pooled_m_step
        # output, each at the sample means, and at both sum_c dist_c /
        # scale_c = pq * n_total: the start's scale is the mean square of the
        # rows, and the pooled row step maximizes over the scale (a jittered
        # one too: its scale sum(inverse * raw) / dim is the maximizer at the
        # jittered shape).  So the log likelihood is sum_c n_c * (-pq/2 *
        # log(2 pi scale_c) - q/2 * logdet_row - p/2 * logdet_col_c) - pq/2 *
        # n_total, read off the scales and the log determinants each set
        # carries.  Rows without spread start at scale 1.0, where this is not
        # the likelihood; the first update from there raises
        # SingularUpdateError, so no trace holding it is returned.
        initial = [
            _identity_start(mean, np.vdot(rows, rows) / (n * mean.size))
            for mean, rows, n in held
        ]
        pq_n = sum(mean.size * n for mean, _, n in held)

        def e_step(sets):
            loglik = 0.0
            for (_, _, n), prm in zip(held, sets):
                (_, row_logdet), (_, col_logdet) = _precisions(prm)
                loglik += _log_likelihood(0.0, n, prm, row_logdet, col_logdet)
            return held, [None] * len(held), float(loglik - 0.5 * pq_n)

    point = _squarem_params if patterns else None
    entries = sum(values.size for values in class_values) - sum(pt._at.size for pt in patterns)
    sets, (completions, _, _), result = _iterate(
        e_step, m_step, _squarem_coordinates, initial, entries, cfg, start, point
    )
    completions = [v if isinstance(c, tuple) else c for v, c in zip(class_values, completions)]
    return sets, completions, result


def _fit_one_class(one: tuple, cfg: FitConfig, start: float) -> FitResult:
    """:func:`_fit_classes` on one class held as :func:`_held` returns it, after the size check."""
    values = one[0]
    p, q = values.shape[1:]
    _check_sample_size(values, max(p, q), f"a {p} x {q} model")
    (params,), _, result = _fit_classes([one], cfg, start)
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
    return _fit_one_class(_held(data.values), config or FitConfig(), start)


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
    return _fit_one_class(_complete(_mean_filled(data.values)), config or FitConfig(), start)


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
        if not np.isfinite(self.mean).all():
            i = np.flatnonzero(~np.isfinite(self.mean))[0]
            raise ValueError(f"mean[{i}] = {self.mean[i]} is not finite")
        self.cov = ensure_spd(self.cov, "covariance")
        if self.cov.shape != (d, d):
            raise ValueError(f"covariance must be {d} x {d}, got {self.cov.shape}")

    def mean_matrix(self) -> np.ndarray:
        """The mean restored to its p x q matrix layout."""
        return unvec(self.mean, self.p, self.q)


def fit_gem(
    data: ObservationSet, config: "FitConfig | None" = None
) -> tuple[UnstructuredParams, FitResult]:
    """Unstructured multivariate normal EM on the stacked observations.

    Ignores the Kronecker structure entirely, which makes it the slowest of
    the three fitters and the hungriest for data (the covariance has
    pq(pq+1)/2 free entries); with more observations than pq it can resolve
    structure the factored model cannot.  A matrix normal with one row is
    the unstructured model: its column factor times its scale is the pq x
    pq covariance of the stacked vector.  So the fit is :func:`_fit_classes`
    on the 1 x pq rows of the stacked observations, E-step, M-step,
    extrapolation and jitter included; complete data reach the sample
    moments in one update.  Returns the parameter estimate together with
    fit metadata whose ``params`` field is None, since the output is not a
    matrix normal parameter set.
    """
    start = time.perf_counter()
    values = data.values
    n, p, q = values.shape
    _check_sample_size(values, p * q, f"an unstructured {p} x {q} model")
    rows = values.transpose(0, 2, 1).reshape(n, 1, p * q)
    with warnings.catch_warnings():
        if np.isnan(values).all(axis=0).any():
            # name the cell never observed in the p x q layout, not the 1 x pq one
            _observed_cell_means(values)
            warnings.filterwarnings("ignore", "cell .* is missing in every observation")
        (params,), _, result = _fit_classes([_held(rows)], config or FitConfig(), start)
    return UnstructuredParams(p, q, params.mean.ravel(), params.scale * params.col_cov), result
