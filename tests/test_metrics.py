import math
from collections import Counter

import numpy as np
import pytest

from otce import (
    FeatureSet,
    MetricConfig,
    SinkhornConfig,
    exact_ot_bruteforce,
    f_otce,
    jc_otce,
    joint_label_distribution,
    label_distance_matrix,
    nce_paired,
    negative_conditional_entropy,
    sinkhorn,
    squared_euclidean_cost,
    uniform_marginal,
)
from otce import metrics, ot
from otce.errors import DimensionMismatch, LabelOutOfRange, LengthMismatch

from conftest import make_set, well_separated_set

SHARP = MetricConfig(sinkhorn=SinkhornConfig(lam=1e-3, max_iterations=5000))


def random_joint(rng, cs, ct):
    j = rng.uniform(size=(cs, ct))
    return j / j.sum()


class TestJointLabelDistribution:
    def test_aligned_diagonal(self):
        coupling = np.diag([0.5, 0.5])
        joint = joint_label_distribution(coupling, np.array([0, 1]), np.array([0, 1]), 2, 2)
        assert joint.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_mass_bookkeeping_with_absent_class(self):
        coupling = np.full((2, 2), 0.25)
        joint = joint_label_distribution(coupling, np.array([0, 0]), np.array([0, 1]), 2, 2)
        assert joint.tolist() == [[0.5, 0.5], [0.0, 0.0]]

    def test_matches_double_loop_accumulation(self, rng):
        plan = rng.uniform(size=(6, 6))
        plan /= plan.sum()
        ys = rng.integers(0, 3, size=6)
        yt = rng.integers(0, 4, size=6)
        joint = joint_label_distribution(plan, ys, yt, 3, 4)
        brute = np.zeros((3, 4))
        for i in range(6):
            for j in range(6):
                brute[ys[i], yt[j]] += plan[i, j]
        assert np.abs(joint - brute).max() < 1e-12

    def test_label_range_checked(self):
        plan = np.full((2, 2), 0.25)
        with pytest.raises(LabelOutOfRange):
            joint_label_distribution(plan, np.array([0, 5]), np.array([0, 1]), 2, 2)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_plan(self, shape):
        ys = np.zeros(shape[0], dtype=np.int64)
        yt = np.zeros(shape[1], dtype=np.int64)
        with pytest.raises(DimensionMismatch):
            joint_label_distribution(np.zeros(shape), ys, yt, 2, 2)

    def test_normalization(self, rng):
        plan = rng.uniform(size=(8, 5))
        plan /= plan.sum()
        ys = rng.integers(0, 2, size=8)
        yt = rng.integers(0, 3, size=5)
        joint = joint_label_distribution(plan, ys, yt, 2, 3)
        assert abs(joint.sum() - 1.0) < 1e-9


class TestNegativeConditionalEntropy:
    def test_deterministic_mapping(self):
        assert negative_conditional_entropy(np.diag([0.5, 0.5])) == 0.0

    def test_independent_uniform(self):
        value = negative_conditional_entropy(np.full((2, 2), 0.25))
        assert value == pytest.approx(-math.log(2), abs=1e-12)

    def test_against_fsum_oracle(self):
        joint = np.array([[0.3, 0.1], [0.2, 0.4]])
        rows = joint.sum(axis=1)
        expected = math.fsum(
            joint[a, b] * math.log(joint[a, b] / rows[a])
            for a in range(2)
            for b in range(2)
        )
        assert negative_conditional_entropy(joint) == pytest.approx(expected, abs=1e-15)

    def test_zero_rows_contribute_nothing(self):
        joint = np.array([[0.5, 0.5], [0.0, 0.0]])
        assert negative_conditional_entropy(joint) == pytest.approx(-math.log(2), abs=1e-12)

    def test_range(self, rng):
        for _ in range(20):
            joint = random_joint(rng, 3, 4)
            value = negative_conditional_entropy(joint)
            assert -math.log(4) - 1e-12 <= value <= 0.0


class TestFOtce:
    def test_identical_tasks_recover_zero(self, rng):
        src = well_separated_set(rng, n=24, classes=3)
        tgt = FeatureSet(src.features, src.labels, src.class_count, name="copy")
        score = f_otce(src, tgt, SHARP)
        assert abs(score.value) <= 1e-3
        assert score.metric_id.value == "f-otce"
        assert score.gamma is None

    def test_paired_recovery_matches_nce(self, rng):
        # same features, independently drawn labelings: the sharp plan is
        # the identity pairing, so the transport metric must agree with
        # the paired-label baseline
        feats = 4.0 * rng.normal(size=(40, 3))
        ys = rng.integers(0, 3, size=40)
        yt = rng.integers(0, 2, size=40)
        src = make_set(feats, ys, classes=3)
        tgt = make_set(feats, yt, classes=2)
        assert f_otce(src, tgt, SHARP).value == pytest.approx(
            nce_paired(ys, yt), abs=1e-3
        )

    def test_independence_smoke(self, rng):
        src = well_separated_set(rng, n=120, d=2, classes=2)
        tgt = FeatureSet(
            src.features, rng.integers(0, 2, size=120), 2, name="indep"
        )
        value = f_otce(src, tgt).value
        assert abs(value - (-math.log(2))) < 0.12

    def test_deterministic(self, rng):
        src = well_separated_set(rng, n=20, classes=2)
        tgt = well_separated_set(rng, n=25, classes=3)
        assert f_otce(src, tgt).value == f_otce(src, tgt).value

    def test_dimension_mismatch(self, rng):
        src = well_separated_set(rng, d=3)
        tgt = well_separated_set(rng, d=4)
        with pytest.raises(DimensionMismatch):
            f_otce(src, tgt)

    def test_sample_permutation_invariance(self, rng):
        src = well_separated_set(rng, n=30, classes=3)
        tgt = well_separated_set(rng, n=26, classes=2)
        v0 = f_otce(src, tgt).value
        p = rng.permutation(src.n)
        q = rng.permutation(tgt.n)
        v1 = f_otce(
            make_set(src.features[p], src.labels[p], 3),
            make_set(tgt.features[q], tgt.labels[q], 2),
        ).value
        assert abs(v0 - v1) < 1e-10

    def test_label_relabeling_invariance(self, rng):
        src = well_separated_set(rng, n=30, classes=3)
        tgt = well_separated_set(rng, n=26, classes=2)
        relabel_s = np.array([2, 0, 1])
        relabel_t = np.array([1, 0])
        v0 = f_otce(src, tgt).value
        v1 = f_otce(
            make_set(src.features, relabel_s[src.labels], 3),
            make_set(tgt.features, relabel_t[tgt.labels], 2),
        ).value
        assert abs(v0 - v1) < 1e-12

    def test_range_invariant(self, rng):
        for classes in (2, 3, 5):
            src = well_separated_set(rng, n=30, d=5, classes=classes)
            tgt = well_separated_set(rng, n=22, d=5, classes=classes)
            value = f_otce(src, tgt).value
            assert -math.log(classes) - 1e-9 <= value <= 0.0

    def test_standardize_flag_changes_geometry(self, rng):
        src = well_separated_set(rng, n=20, classes=2)
        scaled = make_set(src.features * np.array([100.0, 1.0, 1.0, 1.0]), src.labels, 2)
        tgt = well_separated_set(rng, n=20, classes=2)
        scaled_tgt = make_set(tgt.features * np.array([100.0, 1.0, 1.0, 1.0]), tgt.labels, 2)
        plain = f_otce(scaled, scaled_tgt).value
        standardized = f_otce(
            scaled, scaled_tgt, MetricConfig(standardize_features=True)
        ).value
        assert plain != standardized


class TestLabelDistanceMatrix:
    def test_identical_clouds_zero(self, rng):
        # intra-cloud spacing well above lambda so the sharp plan is the
        # identity matching
        cloud0 = 3.0 * rng.normal(size=(10, 3))
        cloud1 = 3.0 * rng.normal(size=(10, 3)) + np.array([40.0, 0.0, 0.0])
        feats = np.vstack([cloud0, cloud1])
        labels = np.repeat([0, 1], 10)
        src = make_set(feats, labels)
        tgt = FeatureSet(src.features, src.labels, 2, name="copy")
        distances = label_distance_matrix(src, tgt, SHARP)
        assert distances[0, 0] < 1e-6 and distances[1, 1] < 1e-6
        assert distances[0, 1] > 1.0

    def test_single_point_clouds(self):
        src = make_set([[0.0, 0.0]], [0])
        tgt = make_set([[3.0, 4.0]], [0])
        distances = label_distance_matrix(src, tgt, SHARP)
        assert distances[0, 0] == pytest.approx(25.0, abs=1e-9)

    def test_matches_bruteforce_on_small_clouds(self, rng):
        xs = rng.normal(size=(4, 2))
        xt = rng.normal(size=(4, 2))
        src = make_set(xs, [0] * 4)
        tgt = make_set(xt, [0] * 4)
        distances = label_distance_matrix(src, tgt, SHARP)
        from otce import squared_euclidean_cost

        exact, _ = exact_ot_bruteforce(squared_euclidean_cost(xs, xt))
        assert distances[0, 0] == pytest.approx(exact, rel=0.01)

    def test_absent_class_inf_sentinel(self, rng):
        src = make_set([[0.0], [10.0]], [0, 2], classes=3)
        tgt = make_set([[0.0], [10.0]], [0, 1], classes=2)
        distances = label_distance_matrix(src, tgt, SHARP)
        assert np.isinf(distances[1]).all()
        assert np.isfinite(distances[0]).all()
        assert np.isfinite(distances[2]).all()

    @pytest.mark.parametrize("log_domain", [True, False])
    @pytest.mark.parametrize("lam", [0.1, 0.005])
    def test_batch_equals_per_pair_sinkhorn(self, absorptions, rng, lam, log_domain):
        # Unequal class sizes with singletons on both sides; class 1 is
        # absent from the source and class 3 from the target.
        src = make_set(rng.random((33, 2)), np.repeat([0, 2, 3, 4], [1, 9, 11, 12]), classes=5)
        tgt = make_set(rng.random((25, 2)) + 0.2, np.repeat([0, 1, 2, 4], [6, 1, 8, 10]), classes=5)
        config = SinkhornConfig(lam=lam, max_iterations=3000, log_domain=log_domain)
        pairs = [(a, b) for a in (0, 2, 3, 4) for b in (0, 1, 2, 4)]
        costs = [
            squared_euclidean_cost(src.features[src.labels == a], tgt.features[tgt.labels == b])
            for a, b in pairs
        ]
        # Some batches stack problems of different shapes, so padding is exercised.
        shapes = [cost.shape for cost in costs]
        assert any(len({shapes[k] for k in batch}) > 1 for batch in ot._batches(shapes))
        reference = [
            sinkhorn(cost, uniform_marginal(cost.shape[0]), uniform_marginal(cost.shape[1]), config)
            for cost in costs
        ]
        per_pair = len(absorptions)
        batch = ot.batched_sinkhorn(costs, config)
        iterations = [result.iterations for result in reference]
        assert batch.iterations.tolist() == iterations
        assert len(set(iterations) - {1}) >= 3  # pairs stop at different iterations
        assert batch.converged.tolist() == [result.converged for result in reference]
        expected = np.array([result.transport_cost for result in reference])
        np.testing.assert_allclose(batch.transport_cost, expected, rtol=1e-12, atol=0)
        # Each problem absorbs as often as its per-pair solve; a problem
        # is told apart by its -cost/lam.
        def per_problem(kernels):
            return Counter(kernel.tobytes() for kernel in kernels)

        assert per_problem(absorptions[per_pair:]) == per_problem(absorptions[:per_pair])
        if log_domain:
            # the start of each solve, plus absorptions after it at small lam
            assert len(per_problem(absorptions)) == len(costs)
            assert per_pair >= len(costs) + (lam < 0.01)
        else:
            assert per_pair == 0

        distances = label_distance_matrix(src, tgt, MetricConfig(sinkhorn=config))
        rows, cols = zip(*pairs)
        np.testing.assert_allclose(distances[rows, cols], expected, rtol=1e-12, atol=0)
        assert np.isinf(distances[1]).all() and np.isinf(distances[:, 3]).all()

    def test_dominant_class_padding_bounded(self, monkeypatch, rng):
        # One class holds most samples on each side. Padding every pair to
        # it would stack 36 x 40 x 40 entries, 18x the pairs' own 57 x 57.
        labels = np.repeat(np.arange(6), [40, 3, 3, 4, 3, 4])
        src = make_set(rng.normal(size=(57, 3)), labels)
        tgt = make_set(rng.normal(size=(57, 3)), labels)
        stacked = []
        init = ot._Batch.__init__

        def recording(batch, costs, lam, absorb):
            init(batch, costs, lam, absorb)
            stacked.append(batch.work.size)

        monkeypatch.setattr(ot._Batch, "__init__", recording)
        config = SinkhornConfig(max_iterations=50)
        distances = label_distance_matrix(src, tgt, MetricConfig(sinkhorn=config))
        assert sum(stacked) <= 2 * 57 * 57
        for a in range(6):
            for b in range(6):
                cost = squared_euclidean_cost(
                    src.features[src.labels == a], tgt.features[tgt.labels == b]
                )
                alone = sinkhorn(
                    cost, uniform_marginal(cost.shape[0]), uniform_marginal(cost.shape[1]), config
                )
                assert distances[a, b] == pytest.approx(alone.transport_cost, rel=1e-12, abs=0)


class TestJcOtce:
    def test_gamma_one_reduces_to_f_otce_bitwise(self, rng):
        for _ in range(5):
            src = well_separated_set(rng, n=18, classes=2)
            tgt = well_separated_set(rng, n=15, classes=3)
            config = MetricConfig(gamma=1.0)
            assert jc_otce(src, tgt, config).value == f_otce(src, tgt, config).value

    def test_gamma_recorded(self, rng):
        src = well_separated_set(rng, n=12, classes=2)
        tgt = well_separated_set(rng, n=12, classes=2)
        score = jc_otce(src, tgt, MetricConfig(gamma=0.25))
        assert score.gamma == 0.25 and score.metric_id.value == "jc-otce"

    def test_gamma_zero_class_permuted_clouds(self, rng):
        # target classes are the source classes swapped; zero label
        # distance on the swapped blocks forces a class-aligned coupling
        cloud0 = rng.normal(size=(8, 2))
        cloud1 = rng.normal(size=(8, 2)) + np.array([6.0, 0.0])
        src = make_set(np.vstack([cloud0, cloud1]), np.repeat([0, 1], 8))
        tgt = make_set(np.vstack([cloud1, cloud0]), np.repeat([0, 1], 8))
        config = MetricConfig(sinkhorn=SinkhornConfig(lam=1e-3), gamma=0.0)
        assert abs(jc_otce(src, tgt, config).value) <= 1e-3

    @pytest.mark.parametrize("standardize", [False, True])
    def test_standardized_equals_public_pieces_bitwise(self, rng, standardize):
        # jc-otce is the composition of its public pieces, on the
        # pooled-standardized features when standardizing.
        scale = np.array([100.0, 1.0, 1.0, 1.0])
        base_s = well_separated_set(rng, n=20, classes=2)
        base_t = well_separated_set(rng, n=18, classes=3)
        src = make_set(base_s.features * scale, base_s.labels, 2)
        tgt = make_set(base_t.features * scale, base_t.labels, 3)
        config = MetricConfig(gamma=0.5, standardize_features=standardize)
        xs, xt = src.features, tgt.features
        if standardize:
            pooled = np.vstack([xs, xt])
            mean, std = pooled.mean(axis=0), pooled.std(axis=0)
            xs, xt = (xs - mean) / std, (xt - mean) / std
        label_term = label_distance_matrix(src, tgt, config)[src.labels][:, tgt.labels]
        cost = 0.5 * squared_euclidean_cost(xs, xt) + 0.5 * label_term
        plan = sinkhorn(
            cost, uniform_marginal(20), uniform_marginal(18), config.sinkhorn
        ).coupling
        joint = joint_label_distribution(plan, src.labels, tgt.labels, 2, 3)
        assert jc_otce(src, tgt, config).value == negative_conditional_entropy(joint)

    @pytest.mark.parametrize("standardize", [False, True])
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_one_sample_cost_per_call(self, monkeypatch, rng, gamma, standardize):
        # The class-pair costs are blocks of the main solve's cost.
        calls = []

        def counting(xs, xt):
            calls.append((xs.shape, xt.shape))
            return squared_euclidean_cost(xs, xt)

        monkeypatch.setattr(metrics, "squared_euclidean_cost", counting)
        src = well_separated_set(rng, n=16, classes=2)
        tgt = well_separated_set(rng, n=15, classes=3)
        jc_otce(src, tgt, MetricConfig(gamma=gamma, standardize_features=standardize))
        assert calls == [((16, 4), (15, 4))]

    @pytest.mark.parametrize("max_iterations", [3, 1000])
    def test_label_diagnostics(self, rng, max_iterations):
        # Three iterations leave every class-pair solve unconverged; the
        # default cap lets them all converge on well-separated classes.
        src = well_separated_set(rng, n=16, classes=2)
        tgt = well_separated_set(rng, n=15, classes=3)
        config = MetricConfig(sinkhorn=SinkhornConfig(max_iterations=max_iterations))
        score = jc_otce(src, tgt, config)
        pairs = ot.batched_sinkhorn(
            [
                squared_euclidean_cost(src.features[src.labels == a], tgt.features[tgt.labels == b])
                for a in np.unique(src.labels)
                for b in np.unique(tgt.labels)
            ],
            config.sinkhorn,
        )
        assert score.label_unconverged == np.count_nonzero(~pairs.converged)
        worst = pairs.final_marginal_error.max()
        assert score.label_marginal_error == pytest.approx(worst, rel=1e-6)
        if max_iterations == 3:
            assert score.label_unconverged == pairs.converged.size == 6
            assert score.label_marginal_error > 1e-9
        else:
            assert score.label_unconverged == 0
            assert score.label_marginal_error <= 1e-9

    def test_no_label_diagnostics_without_label_term(self, rng):
        src = well_separated_set(rng, n=12, classes=2)
        tgt = well_separated_set(rng, n=12, classes=2)
        capped = SinkhornConfig(max_iterations=3)
        for score in (
            jc_otce(src, tgt, MetricConfig(sinkhorn=capped, gamma=1.0)),
            f_otce(src, tgt, MetricConfig(sinkhorn=capped)),
        ):
            assert (score.label_unconverged, score.label_marginal_error) == (0, 0.0)

    def test_range(self, rng):
        src = well_separated_set(rng, n=16, classes=2)
        tgt = well_separated_set(rng, n=16, classes=4)
        value = jc_otce(src, tgt).value
        assert -math.log(4) - 1e-9 <= value <= 0.0


class TestNcePaired:
    def test_identical_labelings(self):
        assert nce_paired(np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1])) == 0.0

    def test_single_source_class_uniform_target(self):
        value = nce_paired(np.array([0, 0]), np.array([0, 1]))
        assert value == pytest.approx(-math.log(2), abs=1e-12)

    def test_counting_oracle(self, rng):
        ys = rng.integers(0, 4, size=50)
        yt = rng.integers(0, 3, size=50)
        joint = np.zeros((4, 3))
        for a, b in zip(ys, yt):
            joint[a, b] += 1 / 50
        assert nce_paired(ys, yt) == pytest.approx(
            negative_conditional_entropy(joint), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            nce_paired(np.array([0, 1]), np.array([0, 1, 0]))

    def test_non_integer_labels_rejected(self):
        for ys, yt in (([0.5, 1.0], [0, 1]), ([0, 1], [0.0, 1.0]), ([True, False], [0, 1])):
            with pytest.raises(LabelOutOfRange):
                nce_paired(ys, yt)


class TestJointNormalizationEverywhere:
    def test_induced_joint_mass(self, rng):
        # every metric evaluation routes through a plan whose induced
        # joint must carry unit mass
        src = well_separated_set(rng, n=14, classes=2)
        tgt = well_separated_set(rng, n=17, classes=3)
        result = sinkhorn(
            np.ascontiguousarray(
                ((src.features[:, None, :] - tgt.features[None, :, :]) ** 2).sum(-1)
            ),
            uniform_marginal(src.n),
            uniform_marginal(tgt.n),
        )
        joint = joint_label_distribution(
            result.coupling, src.labels, tgt.labels, 2, 3
        )
        assert abs(joint.sum() - 1.0) < 1e-9
