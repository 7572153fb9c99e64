import gc
import weakref

import numpy as np
import pytest

import otce.gradient
from otce import (
    FeatureSet,
    GradConfig,
    MetricConfig,
    SinkhornConfig,
    f_otce,
    f_otce_value_and_grad,
    nearest_centroid_probe,
    optimize_target_embeddings,
)
from otce import ot
from otce.errors import (
    DimensionMismatch,
    DivergenceDetected,
    LabelOutOfRange,
    MissingClass,
    NonFiniteGradient,
    NonFiniteValue,
)
from otce.ot import squared_euclidean_cost, uniform_marginal, unrolled_sinkhorn

from conftest import clustered_pair, make_set


def finite_difference(xs, ys, xt, yt, config, h=1e-5):
    grad = np.zeros_like(xt)
    for j in range(xt.shape[0]):
        for k in range(xt.shape[1]):
            plus = xt.copy()
            plus[j, k] += h
            minus = xt.copy()
            minus[j, k] -= h
            vp, _ = f_otce_value_and_grad(xs, ys, plus, yt, config)
            vm, _ = f_otce_value_and_grad(xs, ys, minus, yt, config)
            grad[j, k] = (vp - vm) / (2 * h)
    return grad


def assert_grad_close(analytic, numeric, rel=1e-4, abs_floor=1e-8):
    diff = np.abs(analytic - numeric)
    ok = (diff <= abs_floor) | (diff <= rel * np.abs(numeric))
    assert ok.all(), f"max diff {diff.max()} vs numeric scale {np.abs(numeric).max()}"


def random_instance(rng, m=5, n=5, d=2, classes=2):
    xs = rng.normal(size=(m, d))
    xt = rng.normal(size=(n, d))
    ys = rng.integers(0, classes, size=m)
    yt = rng.integers(0, classes, size=n)
    return xs, ys, xt, yt


class TestValueAndGrad:
    def test_finite_difference_agreement(self, rng):
        config = GradConfig(unroll_iterations=50)
        for _ in range(5):
            xs, ys, xt, yt = random_instance(rng)
            _, grad = f_otce_value_and_grad(xs, ys, xt, yt, config)
            numeric = finite_difference(xs, ys, xt, yt, config)
            assert_grad_close(grad, numeric)

    @pytest.mark.parametrize("seed", [3, 15])
    def test_finite_difference_across_absorptions(self, absorptions, seed):
        # at lam = 0.3 / _ABSORB over 5 _ABSORB / 3 steps (0.005 and 100 at
        # _ABSORB = 60) the unrolled steps absorb after the start, and the
        # reverse runs through the absorbed potentials
        rng = np.random.default_rng(seed)
        xs, xt = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        ys, yt = rng.integers(0, 2, size=5), rng.integers(0, 2, size=5)
        config = GradConfig(
            sinkhorn=SinkhornConfig(lam=0.3 / ot._ABSORB),
            unroll_iterations=round(5 * ot._ABSORB / 3),
        )
        _, grad = f_otce_value_and_grad(xs, ys, xt, yt, config)
        assert len(absorptions) >= 2  # the start plus at least one
        assert np.abs(grad).max() > 0.1
        numeric = finite_difference(xs, ys, xt, yt, config)
        assert_grad_close(grad, numeric)

    def test_single_target_class_is_flat_maximum(self, rng):
        xs, ys, xt, _ = random_instance(rng)
        yt = np.zeros(5, dtype=np.int64)
        config = GradConfig(unroll_iterations=30)
        value, grad = f_otce_value_and_grad(xs, ys, xt, yt, config)
        assert value == 0.0
        assert np.abs(grad).max() <= 1e-10
        # constant in a neighborhood, not just at the point
        nudged, _ = f_otce_value_and_grad(xs, ys, xt + 0.01, yt, config)
        assert nudged == 0.0

    def test_duplicating_targets_splits_gradient(self, rng):
        xs, ys, xt, yt = random_instance(rng)
        config = GradConfig(unroll_iterations=50)
        value, grad = f_otce_value_and_grad(xs, ys, xt, yt, config)
        doubled, grad2 = f_otce_value_and_grad(
            xs, ys, np.vstack([xt, xt]), np.hstack([yt, yt]), config
        )
        assert abs(value - doubled) <= 1e-8
        assert np.abs(grad2[:5] - grad2[5:]).max() <= 1e-8
        assert np.abs(2 * grad2[:5] - grad).max() <= 1e-8

    def test_translation_insensitivity(self, rng):
        xs, ys, xt, yt = random_instance(rng)
        config = GradConfig(unroll_iterations=50)
        value, _ = f_otce_value_and_grad(xs, ys, xt, yt, config)
        offset = np.array([37.5, -11.25])
        shifted, _ = f_otce_value_and_grad(xs + offset, ys, xt + offset, yt, config)
        assert abs(value - shifted) <= 1e-9

    # scaling runs at a lambda where its kernel is healthy
    @pytest.mark.parametrize("log_domain, lam", [(True, 0.1), (False, 0.5)])
    def test_value_equals_f_otce_at_fixed_iterations(self, rng, log_domain, lam):
        xs, ys, xt, yt = random_instance(rng, m=7, n=6, classes=3)
        k = 37
        solver = SinkhornConfig(lam=lam, log_domain=log_domain)
        value, _ = f_otce_value_and_grad(
            xs, ys, xt, yt, GradConfig(sinkhorn=solver, unroll_iterations=k)
        )
        reference = f_otce(
            make_set(xs, ys, classes=3),
            make_set(xt, yt, classes=3),
            MetricConfig(
                sinkhorn=SinkhornConfig(
                    lam=lam, max_iterations=k, marginal_tolerance=1e-300,
                    log_domain=log_domain,
                )
            ),
        ).value
        assert value == reference

    def test_value_equals_f_otce_in_sparse_form(self, kernel_forms):
        # The solver and the unrolled forward both step this kernel by
        # sparse matvecs, and must still take bit-identical steps.
        xs, xt = clustered_pair(1.0, size=5)
        ys, yt = np.arange(200) % 3, np.random.default_rng(1).integers(0, 3, size=200)
        k = 37
        value, _ = f_otce_value_and_grad(xs, ys, xt, yt, GradConfig(unroll_iterations=k))
        solver = SinkhornConfig(max_iterations=k, marginal_tolerance=1e-300)
        reference = f_otce(
            make_set(xs, ys, classes=3), make_set(xt, yt, classes=3), MetricConfig(sinkhorn=solver)
        ).value
        assert kernel_forms == ["sparse", "sparse"]
        assert value == reference
        cost = squared_euclidean_cost(xs, xt)
        plan, _ = unrolled_sinkhorn(cost, solver, k)
        solved = ot.sinkhorn(cost, uniform_marginal(200), uniform_marginal(200), solver)
        assert plan.tobytes() == solved.coupling.values.tobytes()

    def test_scaling_mode_gradient(self, rng):
        # moderate lambda keeps the scaling kernel healthy
        xs, ys, xt, yt = random_instance(rng)
        config = GradConfig(
            sinkhorn=SinkhornConfig(lam=0.5, log_domain=False), unroll_iterations=40
        )
        _, grad = f_otce_value_and_grad(xs, ys, xt, yt, config)
        numeric = finite_difference(xs, ys, xt, yt, config)
        assert_grad_close(grad, numeric)

    def test_scaling_mode_overflow_raises(self, rng):
        xs, ys, xt, yt = random_instance(rng)
        bad = GradConfig(
            sinkhorn=SinkhornConfig(lam=1e-6, log_domain=False), unroll_iterations=20
        )
        with pytest.raises(NonFiniteGradient):
            f_otce_value_and_grad(100 * xs, ys, 100 * xt, yt, bad)
        good = GradConfig(
            sinkhorn=SinkhornConfig(lam=1e-6, log_domain=True), unroll_iterations=20
        )
        value, grad = f_otce_value_and_grad(100 * xs, ys, 100 * xt, yt, good)
        assert np.isfinite(value) and np.isfinite(grad).all()

    def test_log_and_scaling_agree(self, rng):
        xs, ys, xt, yt = random_instance(rng)
        log_cfg = GradConfig(sinkhorn=SinkhornConfig(lam=0.5), unroll_iterations=60)
        scale_cfg = GradConfig(
            sinkhorn=SinkhornConfig(lam=0.5, log_domain=False), unroll_iterations=60
        )
        v1, g1 = f_otce_value_and_grad(xs, ys, xt, yt, log_cfg)
        v2, g2 = f_otce_value_and_grad(xs, ys, xt, yt, scale_cfg)
        assert v1 == pytest.approx(v2, abs=1e-10)
        assert np.abs(g1 - g2).max() < 1e-8


class TestInputValidation:
    # Each bad input is caught before the solve, as an input error.
    @pytest.mark.parametrize(
        "case, error",
        [
            ("negative label", LabelOutOfRange),
            ("short labels", DimensionMismatch),
            ("float labels", LabelOutOfRange),
            ("nan feature", NonFiniteValue),
        ],
    )
    def test_bad_input_raises_input_error(self, rng, monkeypatch, case, error):
        xs, ys, xt, yt = random_instance(rng, m=6, n=5, classes=3)
        if case == "negative label":
            ys[2] = -1
        elif case == "short labels":
            yt = yt[:-1]
        elif case == "float labels":
            ys = ys.astype(np.float64)
        else:
            xt[1, 0] = np.nan

        def unreached(*args):
            raise AssertionError("solved an invalid input")

        monkeypatch.setattr(otce.gradient, "unrolled_sinkhorn", unreached)
        with pytest.raises(error):
            f_otce_value_and_grad(xs, ys, xt, yt, GradConfig(unroll_iterations=5))


def log_sum_exp_walk(cost, config, iterations, dplan):
    """Plan and d(cost) of ``iterations`` unrolled steps, the reverse walked
    in log-sum-exp form at every half-step on the effective potentials."""
    m, n = cost.shape
    rule = ot._Rule.on(
        cost, uniform_marginal(m), uniform_marginal(n), config.lam, absorb=config.log_domain
    )
    fs, gs = [], [rule.G]
    for _ in range(iterations):
        rule.step()
        fs.append(rule.F + np.log(rule.u))
        gs.append(rule.G + np.log(rule.v))
    plan = rule.plan()

    def soft(shift):
        return np.exp(np.maximum(rule.kernel + shift, ot._EXP_CLAMP))

    df, dg, dkernel = rule.plan_vjp(plan, dplan)
    for t in range(iterations - 1, -1, -1):
        # d g / d (kernel + f) is minus the column softmax at this step.
        col = soft(fs[t][:, None] - (rule.log_nu - gs[t + 1])[None, :])
        df -= np.einsum("ij,j->i", col, dg)
        dkernel -= col * dg[None, :]
        # d f / d (kernel + g) is minus the row softmax at this step.
        row = soft(gs[t][None, :] - (rule.log_mu - fs[t])[:, None])
        dkernel -= row * df[:, None]
        dg = -np.einsum("ij,i->j", row, df)
        df = np.zeros(m)
    return plan, rule.cost_vjp(dkernel)


class TestUnrolledReverse:
    # (row half redone, column half redone) of a step. On this 30 x 12
    # instance the log-domain runs have steps of both mixed kinds; a keep
    # range narrowed to [e^-1, e^1] also redoes both halves of some steps.
    # Plain scaling never redoes a half-step.
    @pytest.mark.parametrize(
        "log_domain, lam, scale, keep, patterns",
        [
            (True, 0.01, 1.0, 30.0, {(False, True), (True, False)}),
            (True, 1e-3, 0.2, 30.0, {(False, True), (True, False)}),
            (True, 0.1, 1.0, 1.0, {(False, False), (False, True), (True, False), (True, True)}),
            (False, 0.5, 1.0, 30.0, {(False, False)}),
        ],
    )
    def test_pullback_matches_log_sum_exp_walk(
        self, monkeypatch, log_domain, lam, scale, keep, patterns
    ):
        monkeypatch.setattr(ot, "_SCALING_LO", np.exp(-keep))
        monkeypatch.setattr(ot, "_SCALING_HI", np.exp(keep))
        rng = np.random.default_rng(0)
        cost = squared_euclidean_cost(
            scale * rng.normal(size=(30, 2)), scale * rng.normal(size=(12, 2))
        )
        dplan = rng.normal(size=cost.shape)
        config = SinkhornConfig(lam=lam, log_domain=log_domain)
        reference_plan, reference = log_sum_exp_walk(cost, config, 40, dplan)

        # Whether each half-step of the forward was redone (it absorbed).
        redone = []
        for name in ("_take_u", "_take_v"):
            def watched(rule, scaling, _take=getattr(ot._Rule, name)):
                absorptions = rule.absorptions
                _take(rule, scaling)
                redone.append(rule.absorptions != absorptions)
            monkeypatch.setattr(ot._Rule, name, watched)
        plan, pullback = unrolled_sinkhorn(cost, config, 40)
        steps = set(zip(redone[::2], redone[1::2]))

        builds = []

        def counted(rule, f, g, out, _build=ot._Rule._build):
            builds.append(rule)
            return _build(rule, f, g, out)

        monkeypatch.setattr(ot._Rule, "_build", counted)
        dcost = pullback(dplan)

        assert plan.tobytes() == reference_plan.tobytes()
        assert np.abs(dcost - reference).max() <= 1e-12 * np.abs(reference).max()
        assert patterns <= steps
        assert log_domain or not any(redone)
        # Every epoch but the last is rebuilt once: one per absorption,
        # the start's included, and none in plain scaling.
        start = int(log_domain)
        assert len(builds) == start + sum(redone)

    # At lam = 0.01 the log-domain reverse rebuilds earlier epochs' kernels.
    @pytest.mark.parametrize("log_domain, lam", [(True, 0.01), (False, 0.5)])
    def test_solve_freed_without_cycle_collection(self, monkeypatch, log_domain, lam):
        rng = np.random.default_rng(1)
        cost = squared_euclidean_cost(rng.normal(size=(30, 2)), rng.normal(size=(12, 2)))
        kernels = []

        def recorded_plan(rule, _plan=ot._Rule.plan):
            kernels.append(weakref.ref(rule.work))
            return _plan(rule)

        monkeypatch.setattr(ot._Rule, "plan", recorded_plan)
        gc.disable()
        try:
            config = SinkhornConfig(lam=lam, log_domain=log_domain)
            plan, pullback = unrolled_sinkhorn(cost, config, 40)
            pullback(np.ones_like(plan))
            [kernel] = kernels
            assert kernel() is not None
            del plan, pullback
            assert kernel() is None
        finally:
            gc.enable()


class TestOptimize:
    def _pair(self, rng, n=40):
        centers = np.array([[0.0, 0.0], [6.0, 0.0]])
        labels = np.repeat([0, 1], n // 2)
        src = make_set(centers[labels] + 0.5 * rng.normal(size=(n, 2)), labels)
        noisy = labels.copy()
        flip = rng.permutation(n)[: n // 4]
        noisy[flip] = rng.integers(0, 2, size=flip.size)
        tgt = make_set(
            centers[labels] + 0.5 * rng.normal(size=(n, 2)) + np.array([2.0, 1.0]),
            noisy,
        )
        return src, tgt

    def test_zero_steps_is_identity(self, rng):
        src, tgt = self._pair(rng)
        result = optimize_target_embeddings(src, tgt, GradConfig(steps=0))
        assert np.array_equal(result.target.features, tgt.features)
        assert np.array_equal(result.target.labels, tgt.labels)
        assert result.trace.shape == (0, 3)

    def test_zero_learning_rate_constant_trace(self, rng):
        src, tgt = self._pair(rng)
        config = GradConfig(
            steps=4, learning_rate=0.0, source_batch=100, target_batch=100, seed=9
        )
        result = optimize_target_embeddings(src, tgt, config)
        assert np.array_equal(result.target.features, tgt.features)
        assert np.unique(result.trace[:, 1]).size == 1

    def test_ascent_improves_score(self, rng):
        src, tgt = self._pair(rng)
        config = GradConfig(steps=60, learning_rate=5.0, seed=3)
        result = optimize_target_embeddings(src, tgt, config)
        before = f_otce(src, tgt).value
        after = f_otce(src, result.target).value
        assert after > before

    def test_reproducible_traces(self, rng):
        src, tgt = self._pair(rng)
        config = GradConfig(steps=10, learning_rate=1.0, seed=42)
        a = optimize_target_embeddings(src, tgt, config)
        b = optimize_target_embeddings(src, tgt, config)
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.target.features, b.target.features)

    def test_labels_preserved(self, rng):
        src, tgt = self._pair(rng)
        result = optimize_target_embeddings(src, tgt, GradConfig(steps=5, seed=1))
        assert np.array_equal(result.target.labels, tgt.labels)

    def test_divergence_guard(self, rng, monkeypatch):
        src, tgt = self._pair(rng)
        state = {"value": 0.0}

        def plunging(xs, ys, xt, yt, config=None):
            state["value"] -= 0.2
            return state["value"], np.zeros_like(xt)

        monkeypatch.setattr(otce.gradient, "f_otce_value_and_grad", plunging)
        with pytest.raises(DivergenceDetected):
            optimize_target_embeddings(src, tgt, GradConfig(steps=30))

    def test_dimension_mismatch(self, rng):
        src, _ = self._pair(rng)
        bad = make_set(rng.normal(size=(6, 3)), [0, 0, 0, 1, 1, 1])
        with pytest.raises(DimensionMismatch):
            optimize_target_embeddings(src, bad, GradConfig(steps=1))

    def test_trace_file_round_trip(self, rng, tmp_path):
        src, tgt = self._pair(rng)
        result = optimize_target_embeddings(src, tgt, GradConfig(steps=6, seed=2))
        path = tmp_path / "trace.csv"
        otce.gradient.write_trace(result.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,f_otce,grad_norm"
        assert len(lines) == 7
        assert float(lines[1].split(",")[1]) == result.trace[0, 1]


class TestNearestCentroidProbe:
    def test_train_equals_test(self, rng):
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        labels = np.repeat([0, 1, 2], 10)
        feats = centers[labels] + 0.1 * rng.normal(size=(30, 2))
        fs = make_set(feats, labels)
        assert nearest_centroid_probe(fs, fs) == 1.0

    def test_tie_goes_to_smaller_class(self):
        train = make_set([[0.0], [0.0]], [0, 1])
        test = make_set([[5.0], [-3.0]], [1, 1])
        # identical centroids: everything predicted as class 0
        assert nearest_centroid_probe(train, test) == 0.0

    def test_missing_class(self):
        train = make_set([[0.0]], [0], classes=2)
        test = make_set([[1.0]], [1], classes=2)
        with pytest.raises(MissingClass):
            nearest_centroid_probe(train, test)

    def test_well_separated_gaussians(self, rng):
        # centroid separation 6 sigma: per-side error mass below phi(-3)
        n = 200
        labels = rng.integers(0, 2, size=n)
        centers = np.array([[0.0, 0.0], [6.0, 0.0]])
        feats = centers[labels] + rng.normal(size=(n, 2))
        fs = make_set(feats, labels)
        train = make_set(feats[: n // 2], labels[: n // 2])
        test = make_set(feats[n // 2 :], labels[n // 2 :])
        assert nearest_centroid_probe(train, test) >= 0.99

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nearest_centroid_probe(make_set([[0.0]], [0]), make_set([[0.0, 1.0]], [0]))
