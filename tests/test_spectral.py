"""Class models, projection, distances, clustering, classification."""

import re

import numpy as np
import pytest
from support import ascends, knock_out, shape_matrix, spy

from matnorm import linalg
from matnorm.mle import FitConfig
from matnorm.missing import fit_em
from matnorm.model import DataError, MatrixNormalParams, ObservationSet, log_density, sample
from matnorm.spectral import (
    ClassModel,
    ClusterMerge,
    LabeledObservationSet,
    _projected_params,
    class_distance,
    distance_matrix,
    fit_class_models,
    hierarchical_cluster,
    mle_classify,
    pca_row_cov,
    project,
    projected_class_stats,
    separability,
)

TIGHT = FitConfig(max_iters=3000, tol=1e-13)


def two_class_data(rng, p=3, q=4, n_per=80, miss=0.1, mean_shift=1.5):
    """Two classes sharing a row factor, differing in mean, column factor, scale."""
    row_cov = shape_matrix(rng, p)
    mu1 = rng.standard_normal((p, q))
    mu2 = mu1 + mean_shift * np.sign(rng.standard_normal((p, q)))
    c1 = MatrixNormalParams(mu1, row_cov, shape_matrix(rng, q), 1.0)
    c2 = MatrixNormalParams(mu2, row_cov, shape_matrix(rng, q), 1.3)
    values = np.concatenate(
        [sample(c1, n_per, rng).values, sample(c2, n_per, rng).values]
    )
    labels = np.repeat([1, 2], n_per)
    if miss > 0:
        values = knock_out(values, miss, rng)
    return LabeledObservationSet(values, labels), (c1, c2), row_cov


class TestLabeledObservationSet:
    def test_properties(self):
        data = LabeledObservationSet(np.zeros((4, 2, 3)), [1, 2, 1, 2])
        assert (data.n_obs, data.p, data.q, data.n_classes) == (4, 2, 3, 2)
        np.testing.assert_array_equal(data.class_indices(2), [1, 3])

    def test_rejects_sparse_labels(self):
        with pytest.raises(ValueError, match="dense"):
            LabeledObservationSet(np.zeros((4, 2, 2)), [1, 3, 1, 3])

    def test_rejects_zero_based_labels(self):
        with pytest.raises(ValueError, match="dense"):
            LabeledObservationSet(np.zeros((4, 2, 2)), [0, 1, 0, 1])

    def test_rejects_singleton_class(self):
        with pytest.raises(ValueError, match="class 2"):
            LabeledObservationSet(np.zeros((3, 2, 2)), [1, 2, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledObservationSet(np.zeros((3, 2, 2)), [1, 2])

    def test_rejects_non_whole_labels(self):
        # casting would read 1.9 as class 1 and 2.7 as class 2
        with pytest.raises(ValueError, match=r"label 1\.9 is not a whole number"):
            LabeledObservationSet(np.zeros((4, 2, 2)), [1.0, 1.9, 2.2, 2.7])

    def test_accepts_whole_float_labels(self):
        data = LabeledObservationSet(np.zeros((4, 2, 2)), [1.0, 2.0, 1.0, 2.0])
        assert data.labels.dtype.kind == "i"
        np.testing.assert_array_equal(data.labels, [1, 2, 1, 2])


class TestFitClassModels:
    def test_single_class_matches_plain_em(self):
        rng = np.random.default_rng(0)
        row_cov = shape_matrix(rng, 3)
        params = MatrixNormalParams(
            rng.standard_normal((3, 4)), row_cov, shape_matrix(rng, 4), 0.9
        )
        values = knock_out(sample(params, 120, rng).values, 0.1, rng)
        labeled = LabeledObservationSet(values, np.ones(120, dtype=int))

        model = fit_class_models(labeled, method="em", config=TIGHT)
        plain = fit_em(ObservationSet(values), TIGHT)
        # one driver: a one-label class fit is fit_em, bit for bit
        ref, got = plain.params, model.class_params[0]
        np.testing.assert_array_equal(model.loglik_trace, plain.loglik_trace)
        np.testing.assert_array_equal(got.mean, ref.mean)
        np.testing.assert_array_equal(got.row_cov, ref.row_cov)
        np.testing.assert_array_equal(got.col_cov, ref.col_cov)
        assert got.scale == ref.scale

    def test_loglik_never_decreases(self):
        rng = np.random.default_rng(1)
        data, _, _ = two_class_data(rng)
        model = fit_class_models(data, method="em", config=TIGHT)
        trace = model.loglik_trace
        assert ascends(trace)

    def test_row_factor_is_shared_object(self):
        rng = np.random.default_rng(2)
        data, _, _ = two_class_data(rng)
        model = fit_class_models(data, method="em")
        first = model.class_params[0].row_cov
        assert all(cp.row_cov is first for cp in model.class_params)
        assert model.row_cov is first

    def test_completions_fill_all_holes_in_original_order(self):
        rng = np.random.default_rng(3)
        data, _, _ = two_class_data(rng)
        model = fit_class_models(data, method="em")
        assert not np.isnan(model.completions).any()
        observed = ~np.isnan(data.values)
        np.testing.assert_array_equal(
            model.completions[observed], data.values[observed]
        )

    def test_class_without_holes_keeps_its_values_beside_one_with_holes(self):
        rng = np.random.default_rng(6)
        data, _, _ = two_class_data(rng, miss=0.0)
        first, second = data.class_indices(1), data.class_indices(2)
        values = data.values.copy()
        values[second] = knock_out(values[second], 0.15, rng)
        model = fit_class_models(LabeledObservationSet(values, data.labels), "em", TIGHT)
        np.testing.assert_array_equal(model.completions[first], data.values[first])
        assert not np.isnan(model.completions[second]).any()
        trace = model.loglik_trace
        assert model.iterations >= 3
        assert ascends(trace)

    def test_mean_fill_variant_runs_and_converges(self):
        rng = np.random.default_rng(4)
        data, _, _ = two_class_data(rng)
        model = fit_class_models(data, method="mm", config=TIGHT)
        assert model.method == "mm"
        assert model.converged
        assert not np.isnan(model.completions).any()

    def test_pooling_beats_separate_fits_on_shared_row_factor(self):
        # both classes draw from one row factor; estimating it from the
        # union should land closer than either single class fit
        rng = np.random.default_rng(5)
        data, _, row_cov = two_class_data(rng, n_per=60, miss=0.05)
        model = fit_class_models(data, method="em", config=TIGHT)
        pooled_err = np.linalg.norm(model.row_cov - row_cov)
        separate_errs = []
        for c in (1, 2):
            ids = data.class_indices(c)
            fit = fit_em(ObservationSet(data.values[ids]), TIGHT)
            separate_errs.append(np.linalg.norm(fit.params.row_cov - row_cov))
        assert pooled_err < np.mean(separate_errs)

    def test_rejects_unknown_method(self):
        data = LabeledObservationSet(np.zeros((4, 2, 2)), [1, 1, 2, 2])
        with pytest.raises(ValueError, match="method"):
            fit_class_models(data, method="mle")


class TestPca:
    def test_invariants_on_fitted_model(self):
        rng = np.random.default_rng(6)
        data, _, _ = two_class_data(rng)
        model = fit_class_models(data, method="em")
        pca = pca_row_cov(model, 2)
        p = data.p
        assert abs(np.sum(pca.eigenvalues) - np.trace(model.row_cov)) < 1e-9
        np.testing.assert_allclose(
            pca.eigenvectors.T @ pca.eigenvectors, np.eye(p), atol=1e-10
        )
        assert abs(np.sum(pca.fractions) - 1.0) < 1e-12
        assert np.all(np.diff(pca.eigenvalues) <= 1e-12)
        assert pca.k == 2

    def test_constructed_spectrum(self):
        a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        pca = pca_row_cov(a)
        np.testing.assert_allclose(pca.eigenvalues, [5.0, 3.0, 1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(pca.eigenvectors[:, 0], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(pca.eigenvectors[:, 1], [r, r, 0], atol=1e-12)
        np.testing.assert_allclose(pca.eigenvectors[:, 2], [r, -r, 0], atol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        a = shape_matrix(rng, 5)
        pca = pca_row_cov(a)
        for j in range(5):
            v = pca.eigenvectors[:, j]
            assert v[int(np.argmax(np.abs(v)))] > 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            pca_row_cov(np.eye(3), 4)
        with pytest.raises(ValueError):
            pca_row_cov(np.eye(3), 0)


class TestProject:
    def test_full_rank_projection_round_trips(self):
        rng = np.random.default_rng(8)
        a = shape_matrix(rng, 4)
        pca = pca_row_cov(a)
        x = rng.standard_normal((4, 6))
        proj = project(x, pca, k=4)
        np.testing.assert_allclose(pca.eigenvectors @ proj, x, atol=1e-10)

    def test_batch_and_single_agree(self):
        rng = np.random.default_rng(9)
        pca = pca_row_cov(shape_matrix(rng, 3), 2)
        batch = rng.standard_normal((5, 3, 4))
        stacked = project(batch, pca)
        assert stacked.shape == (5, 2, 4)
        for i in range(5):
            np.testing.assert_array_equal(stacked[i], project(batch[i], pca))

    def test_rejects_missing_entries(self):
        pca = pca_row_cov(np.eye(3), 2)
        x = np.zeros((3, 4))
        x[0, 0] = np.nan
        with pytest.raises(DataError):
            project(x, pca)

    def test_rejects_row_mismatch(self):
        pca = pca_row_cov(np.eye(3), 2)
        with pytest.raises(ValueError):
            project(np.zeros((4, 5)), pca)


def test_projected_class_stats_hand_case():
    projected = np.array(
        [
            [[1.0, 3.0]],
            [[3.0, 5.0]],
            [[0.0, 0.0]],
            [[0.0, 2.0]],
        ]
    )  # (4, k=1, q=2) stacked to vectors of length 2
    labels = np.array([1, 1, 2, 2])
    stats = projected_class_stats(projected, labels)
    mean1, cov1 = stats[0]
    np.testing.assert_array_equal(mean1, [2.0, 4.0])
    np.testing.assert_array_equal(cov1, [[1.0, 1.0], [1.0, 1.0]])
    mean2, cov2 = stats[1]
    np.testing.assert_array_equal(mean2, [0.0, 1.0])
    np.testing.assert_array_equal(cov2, [[0.0, 0.0], [0.0, 1.0]])


def test_projected_class_stats_rejects_non_whole_labels():
    with pytest.raises(ValueError, match=r"label 1\.5 is not a whole number"):
        projected_class_stats(np.zeros((4, 1, 2)), [1.0, 1.5, 2.0, 2.0])


class TestClassDistance:
    def test_identity_covariances_give_half_squared_distance(self):
        m1 = np.array([1.0, 0.0])
        m2 = np.array([4.0, 4.0])
        d = class_distance(m1, np.eye(2), m2, np.eye(2))
        assert abs(d - 0.5 * 25.0) < 1e-12

    def test_equal_covariances_give_half_mahalanobis(self):
        rng = np.random.default_rng(10)
        cov = shape_matrix(rng, 3)
        m1 = rng.standard_normal(3)
        m2 = rng.standard_normal(3)
        delta = m1 - m2
        expected = 0.5 * float(delta @ np.linalg.solve(cov, delta))
        assert abs(class_distance(m1, cov, m2, cov) - expected) < 1e-10

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c1 = shape_matrix(rng, 3)
            c2 = shape_matrix(rng, 3)
            m1 = rng.standard_normal(3)
            m2 = rng.standard_normal(3)
            assert (
                abs(class_distance(m1, c1, m2, c2) - class_distance(m2, c2, m1, c1))
                < 1e-12
            )

    def test_zero_at_equal_means(self):
        rng = np.random.default_rng(12)
        c1 = shape_matrix(rng, 2)
        c2 = shape_matrix(rng, 2)
        m = rng.standard_normal(2)
        assert abs(class_distance(m, c1, m, c2)) < 1e-12

    def test_positive_otherwise(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = class_distance(
                rng.standard_normal(2),
                shape_matrix(rng, 2),
                rng.standard_normal(2) + 3.0,
                shape_matrix(rng, 2),
            )
            assert d > 0


def test_distance_matrix_and_separability():
    rng = np.random.default_rng(14)
    stats = [
        (rng.standard_normal(3), shape_matrix(rng, 3)) for _ in range(4)
    ]
    dist = distance_matrix(stats)
    assert dist.shape == (4, 4)
    np.testing.assert_allclose(dist, dist.T, atol=1e-12)
    np.testing.assert_array_equal(np.diag(dist), np.zeros(4))
    total, log_total = separability(dist)
    assert abs(total - np.triu(dist, k=1).sum()) < 1e-12
    assert abs(log_total - np.log(total)) < 1e-12


def test_separability_rejects_zero_distances():
    with pytest.raises(ValueError):
        separability(np.zeros((3, 3)))


class TestHierarchicalCluster:
    def test_three_leaf_hand_case(self):
        d = np.array(
            [
                [0.0, 1.0, 4.0],
                [1.0, 0.0, 5.0],
                [4.0, 5.0, 0.0],
            ]
        )
        merges = hierarchical_cluster(d)
        assert merges[0] == ClusterMerge(left=0, right=1, height=1.0, size=2)
        # cluster 3 = {0, 1}; average of (4, 5) links it to leaf 2
        assert merges[1].left == 2
        assert merges[1].right == 3
        assert abs(merges[1].height - 4.5) < 1e-12
        assert merges[1].size == 3

    def test_tie_break_prefers_smallest_ids(self):
        d = np.ones((3, 3)) - np.eye(3)
        merges = hierarchical_cluster(d)
        assert (merges[0].left, merges[0].right) == (0, 1)

    def test_heights_never_decrease(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            raw = rng.uniform(0.1, 10.0, size=(k, k))
            d = (raw + raw.T) / 2.0
            np.fill_diagonal(d, 0.0)
            merges = hierarchical_cluster(d)
            heights = [m.height for m in merges]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))
            assert merges[-1].size == k

    def test_validation(self):
        with pytest.raises(ValueError):
            hierarchical_cluster(np.zeros((1, 1)))
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            hierarchical_cluster(bad)
        bad_diag = np.array([[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            hierarchical_cluster(bad_diag)


class TestMleClassify:
    def test_separated_classes_recovered(self):
        rng = np.random.default_rng(16)
        data, _, _ = two_class_data(rng, n_per=100, miss=0.05, mean_shift=2.0)
        model = fit_class_models(data, method="em")
        pca = pca_row_cov(model, 2)
        predicted = mle_classify(model.completions, model, pca)
        accuracy = float(np.mean(predicted == data.labels))
        assert accuracy > 0.95

    def test_single_matrix_returns_int(self):
        rng = np.random.default_rng(17)
        data, _, _ = two_class_data(rng, n_per=40)
        model = fit_class_models(data, method="em")
        pca = pca_row_cov(model, 2)
        label = mle_classify(model.completions[0], model, pca)
        assert isinstance(label, int)
        assert label in (1, 2)

    def test_tie_goes_to_lower_label(self):
        params = MatrixNormalParams(np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0)
        model = ClassModel(
            class_params=[params, params],
            completions=np.zeros((4, 2, 2)),
            labels=np.array([1, 1, 2, 2]),
            method="em",
            loglik_trace=np.zeros(1),
            iterations=0,
            wall_time=0.0,
            converged=True,
        )
        pca = pca_row_cov(np.eye(2), 2)
        assert mle_classify(np.ones((2, 2)), model, pca) == 1

    def test_classification_invariant_to_subspace_size_when_full(self):
        # with k = p the projection is a rotation, which cannot change a
        # maximum likelihood comparison between classes
        rng = np.random.default_rng(18)
        data, _, _ = two_class_data(rng, n_per=50)
        model = fit_class_models(data, method="em")
        pca = pca_row_cov(model, data.p)
        direct = mle_classify(model.completions, model, pca, k=data.p)
        assert set(np.unique(direct)) <= {1, 2}


def three_class_data(rng, holes, p=4, q=6, n_per=60):
    """Three classes sharing a row factor, with MCAR holes or longitudinal dropout."""
    row_cov = shape_matrix(rng, p)
    base = rng.standard_normal((p, q))
    classes = [
        MatrixNormalParams(base + 0.8 * rng.standard_normal((p, q)), row_cov,
                           shape_matrix(rng, q), scale)
        for scale in (1.0, 1.4, 0.8)
    ]
    values = np.concatenate([sample(c, n_per, rng).values for c in classes])
    labels = np.repeat([1, 2, 3], n_per)
    if holes == "mcar":
        values = knock_out(values, 0.1, rng)
    else:
        for i in np.flatnonzero(rng.random(values.shape[0]) < 0.6):
            values[i, :, rng.integers(q // 2, q):] = np.nan
    return LabeledObservationSet(values, labels)


class TestMleClassifyBatched:
    """One score per class over the whole stack, equal to scoring one at a time."""

    @pytest.mark.parametrize("holes", ["mcar", "dropout"])
    def test_labels_match_per_observation_log_density(self, holes):
        data = three_class_data(np.random.default_rng(19), holes)
        model = fit_class_models(data, method="em")
        pca = pca_row_cov(model, 2)
        rng = np.random.default_rng(20)
        stack = model.completions + 0.5 * rng.standard_normal(model.completions.shape)
        proj = project(stack, pca, 2)
        scores = np.array(
            [
                [log_density(x, params) for params in _projected_params(model, pca, 2)]
                for x in proj
            ]
        )
        want = np.argmax(scores, axis=1) + 1
        got = mle_classify(stack, model, pca, 2)
        assert got.dtype.kind == "i"
        np.testing.assert_array_equal(got, want)
        assert set(np.unique(got)) == {1, 2, 3}
        for i in (0, 70, 179):
            label = mle_classify(stack[i], model, pca, 2)
            assert type(label) is int
            assert label == want[i]

    def test_ties_in_a_stack_go_to_lower_label(self):
        far = MatrixNormalParams(np.full((2, 2), 50.0), np.eye(2), np.eye(2), 1.0)
        near = MatrixNormalParams(np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0)
        model = ClassModel(
            class_params=[far, near, near],
            completions=np.zeros((6, 2, 2)),
            labels=np.repeat([1, 2, 3], 2),
            method="em",
            loglik_trace=np.zeros(1),
            iterations=0,
            wall_time=0.0,
            converged=True,
        )
        pca = pca_row_cov(np.eye(2), 2)
        stack = np.stack([np.ones((2, 2)), -np.ones((2, 2)), np.zeros((2, 2))])
        np.testing.assert_array_equal(mle_classify(stack, model, pca), [2, 2, 2])
        assert mle_classify(stack[0], model, pca) == 2

    def test_factorizations_do_not_grow_with_the_stack(self, monkeypatch):
        data, _, _ = two_class_data(np.random.default_rng(21), n_per=40)
        model = fit_class_models(data, method="em")
        pca = pca_row_cov(model, 2)
        inverses = spy(monkeypatch, linalg.spd_inverse)
        choleskys = spy(monkeypatch, linalg.spd_cholesky)
        rng = np.random.default_rng(22)
        for n in (10, 1000):
            del inverses[:], choleskys[:]
            mle_classify(model.completions[rng.integers(0, data.n_obs, n)], model, pca)
            # both factors of each class, once per call, each through one Cholesky
            assert len(inverses) == len(choleskys) == 2 * model.n_classes

    @pytest.mark.parametrize(
        "shape", [(5, 3, 1), (3, 1), (5, 3, 5)], ids=["stack-one-column", "one-column", "extra-column"]
    )
    def test_rejects_a_column_count_other_than_the_models(self, shape):
        data, _, _ = two_class_data(np.random.default_rng(23), p=3, q=4, n_per=30)
        model = fit_class_models(data, method="em")
        pca = pca_row_cov(model, 2)
        message = rf"{re.escape(str(shape))}.*3 x 4"
        with pytest.raises(ValueError, match=message):
            mle_classify(np.ones(shape), model, pca)
