import gc
import itertools
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
from otce import SyntheticTaskSpec, generate_task_pair, ot
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

    # At lam = 0.5 the kernel is dense, and no step after the start absorbs.
    @pytest.mark.parametrize("lam", [0.1, 0.5])
    def test_value_equals_f_otce_at_fixed_iterations(self, rng, lam):
        xs, ys, xt, yt = random_instance(rng, m=7, n=6, classes=3)
        k = 37
        solver = SinkhornConfig(lam=lam)
        value, _ = f_otce_value_and_grad(
            xs, ys, xt, yt, GradConfig(sinkhorn=solver, unroll_iterations=k)
        )
        reference = f_otce(
            make_set(xs, ys, classes=3),
            make_set(xt, yt, classes=3),
            MetricConfig(
                sinkhorn=SinkhornConfig(lam=lam, max_iterations=k, marginal_tolerance=1e-300)
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
        # Each forward rebuilds its kernel twice, at both halves of its first step.
        assert kernel_forms == ["sparse"] * 4
        assert value == reference
        cost = squared_euclidean_cost(xs, xt)
        [plan], _ = unrolled_sinkhorn([cost], solver, k)
        solved = ot.sinkhorn(cost, uniform_marginal(200), uniform_marginal(200), solver)
        assert plan.tobytes() == solved.coupling.values.tobytes()

    def test_underflowing_kernel_gradient_finite(self, rng):
        # At lam = 1e-6, exp(-cost/lam) underflows to zero but for a few
        # entries, which the absorptions survive.
        xs, ys, xt, yt = random_instance(rng)
        config = GradConfig(sinkhorn=SinkhornConfig(lam=1e-6), unroll_iterations=20)
        value, grad = f_otce_value_and_grad(100 * xs, ys, 100 * xt, yt, config)
        assert np.isfinite(value) and np.isfinite(grad).all()

    def test_kernel_overflow_raises_without_retry_hint(self, rng):
        # -cost/lam overflows, which no retry fixes, so none is suggested.
        xs, ys, xt, yt = random_instance(rng)
        config = GradConfig(sinkhorn=SinkhornConfig(lam=1e-308), unroll_iterations=5)
        with pytest.raises(NonFiniteGradient, match=r"overflows \(lam=1e-308\)$"):
            f_otce_value_and_grad(xs, ys, xt, yt, config)


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

    @pytest.mark.parametrize(
        "field", ["unroll_iterations", "steps", "source_batch", "target_batch", "seed"]
    )
    def test_counts_must_be_integers(self, rng, field):
        # Rejected at construction, before any solve; numpy integers are counts.
        for value in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                GradConfig(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            GradConfig(**{field: -1})
        src = make_set(rng.normal(size=(8, 2)), np.arange(8) % 2)
        tgt = make_set(rng.normal(size=(6, 2)), np.arange(6) % 2)
        config = GradConfig(**{"steps": 2, "unroll_iterations": 4, field: np.int64(3)})
        result = optimize_target_embeddings(src, tgt, config)
        assert result.trace.shape == (config.steps, 3)


def log_sum_exp_walk(cost, config, iterations, dplan):
    """Plan and d(cost) of ``iterations`` unrolled steps, the reverse walked
    in log-sum-exp form at every half-step on the effective potentials."""
    m, n = cost.shape
    rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), config.lam)
    fs, gs = [], [rule.G]
    # The steps' error state: the start divides by zero.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(iterations):
            rule.step()
            fs.append(rule.F + np.log(rule.u))
            gs.append(rule.G + np.log(rule.v))
    plan = rule.plan()

    def soft(shift):
        return np.exp(np.maximum(rule.cost * rule.scale + shift, ot._EXP_CLAMP))

    dkernel = dplan * plan
    df, dg = dkernel.sum(axis=1), dkernel.sum(axis=0)
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
    return plan, dkernel * (-1.0 / config.lam)


class TestUnrolledReverse:
    # The (row half redone, column half redone) kinds of the steps after
    # the first. On this 30 x 12 instance the runs at lam <= 0.01 have
    # steps of both mixed kinds; a keep range narrowed to [e^-1, e^1] also
    # redoes both halves of some steps; at lam = 0.5 the kernel is dense
    # and every step after the first keeps both halves.
    @pytest.mark.parametrize(
        "lam, scale, keep, patterns",
        [
            (0.01, 1.0, 30.0, {(False, False), (False, True), (True, False)}),
            (1e-3, 0.2, 30.0, {(False, False), (False, True), (True, False)}),
            (0.1, 1.0, 1.0, {(False, False), (False, True), (True, False), (True, True)}),
            (0.5, 1.0, 30.0, {(False, False)}),
        ],
        ids=["mixed", "mixed-small-lam", "narrow-keep", "kept"],
    )
    def test_pullback_matches_log_sum_exp_walk(self, monkeypatch, lam, scale, keep, patterns):
        monkeypatch.setattr(ot, "_SCALING_LO", np.exp(-keep))
        monkeypatch.setattr(ot, "_SCALING_HI", np.exp(keep))
        rng = np.random.default_rng(0)
        cost = squared_euclidean_cost(
            scale * rng.normal(size=(30, 2)), scale * rng.normal(size=(12, 2))
        )
        dplan = rng.normal(size=cost.shape)
        config = SinkhornConfig(lam=lam)
        reference_plan, reference = log_sum_exp_walk(cost, config, 40, dplan)

        rules = []
        init = ot._Taped.__init__
        monkeypatch.setattr(
            ot._Taped, "__init__", lambda rule, *args: rules.append(rule) or init(rule, *args)
        )
        [plan], pullback = unrolled_sinkhorn([cost], config, 40)
        # Whether each half-step of the forward was redone: it absorbed, so
        # the absorption count it tapes for the one problem moved on. The
        # rule starts on the empty kernel, so its first row half is redone.
        epochs = [0] + [int(record[0][0]) for record in rules[0].tape]
        redone = [after != before for before, after in zip(epochs, epochs[1:])]
        assert len(redone) == 2 * 40 and redone[0]
        steps = set(zip(redone[2::2], redone[3::2]))

        builds = []

        def counted(rule, f, g, out, _build=ot._Rule._build):
            builds.append(rule)
            return _build(rule, f, g, out)

        monkeypatch.setattr(ot._Rule, "_build", counted)
        [dcost] = pullback([dplan])

        assert plan.tobytes() == reference_plan.tobytes()
        assert np.abs(dcost - reference).max() <= 1e-12 * np.abs(reference).max()
        assert steps == patterns
        # Every epoch but the last is rebuilt once: one per absorption
        # after the first.
        assert len(builds) == sum(redone[1:])

    def test_forced_redo_matches_log_sum_exp_walk(self, monkeypatch, zeroed_row):
        # A row half redone on a zeroed rebuild (see the zeroed_row fixture)
        # is walked back like any redone one, on its epoch's kernel built
        # anew, intact. The forward still equals the solver's to the bit.
        # On the instance above, a keep range narrowed to [e^-5, e^5] at
        # lam = 0.05 has 9 of the 80 half-steps redone, spread over the run.
        monkeypatch.setattr(ot, "_SCALING_LO", np.exp(-5.0))
        monkeypatch.setattr(ot, "_SCALING_HI", np.exp(5.0))
        rng = np.random.default_rng(0)
        cost = squared_euclidean_cost(rng.normal(size=(30, 2)), rng.normal(size=(12, 2)))
        dplan = rng.normal(size=cost.shape)
        config = SinkhornConfig(lam=0.05, max_iterations=40, marginal_tolerance=1e-300)
        reference_plan, reference = log_sum_exp_walk(cost, config, 40, dplan)
        redone = zeroed_row(cost.shape, 3)
        [plan], pullback = unrolled_sinkhorn([cost], config, 40)
        [dcost] = pullback([dplan])
        assert redone == [True]
        assert np.abs(plan - reference_plan).max() <= 1e-15
        assert np.abs(dcost - reference).max() <= 1e-12 * np.abs(reference).max()
        redone = zeroed_row(cost.shape, 3)
        solved = ot.sinkhorn(cost, uniform_marginal(30), uniform_marginal(12), config)
        assert redone == [True] and plan.tobytes() == solved.coupling.values.tobytes()

    # Stacks with padded rows, padded columns and a one-column or one-row
    # problem beside wider ones: each problem's plan is the solver's at K
    # iterations and its reverse that of a stack of it alone, to the bit.
    @pytest.mark.parametrize(
        "shapes", [[(30, 12), (30, 12), (30, 7)], [(30, 12), (30, 1)], [(20, 12), (1, 12), (30, 5)]]
    )
    # At lam = 0.5 every step after the start keeps both halves.
    @pytest.mark.parametrize("lam", [0.01, 0.5])
    def test_stacked_equals_alone(self, shapes, lam):
        rng = np.random.default_rng(4)
        costs = [
            squared_euclidean_cost(rng.normal(size=(m, 2)), rng.normal(size=(n, 2)))
            for m, n in shapes
        ]
        dplans = [rng.normal(size=shape) for shape in shapes]
        config = SinkhornConfig(lam=lam, max_iterations=40, marginal_tolerance=1e-300)
        plans, pullback = unrolled_sinkhorn(costs, config, 40)
        for cost, plan, dplan, dcost in zip(costs, plans, dplans, pullback(dplans)):
            m, n = cost.shape
            solved = ot.sinkhorn(cost, uniform_marginal(m), uniform_marginal(n), config)
            assert plan.tobytes() == solved.coupling.values.tobytes()
            _, reverse = unrolled_sinkhorn([cost], config, 40)
            assert reverse([dplan])[0].tobytes() == dcost.tobytes()

    # At lam = 0.01 the instance of the "mixed" walk above absorbs 3 times
    # in 40 steps, so the reverse rebuilds its earlier epochs' kernels; at
    # lam = 0.5 this one absorbs at the start alone.
    @pytest.mark.parametrize(
        "lam, seed, rebuilds",
        [pytest.param(0.01, 0, True, id="0.01"), pytest.param(0.5, 1, False, id="0.5")],
    )
    def test_solve_freed_without_cycle_collection(self, monkeypatch, lam, seed, rebuilds):
        rng = np.random.default_rng(seed)
        cost = squared_euclidean_cost(rng.normal(size=(30, 2)), rng.normal(size=(12, 2)))
        rules = []

        def recorded_init(rule, *args, _init=ot._Taped.__init__):
            rules.append(weakref.ref(rule))
            _init(rule, *args)

        monkeypatch.setattr(ot._Taped, "__init__", recorded_init)
        gc.disable()
        try:
            config = SinkhornConfig(lam=lam)
            [plan], pullback = unrolled_sinkhorn([cost], config, 40)
            pullback([np.ones_like(plan)])
            [rule] = rules
            assert rule() is not None
            assert (rule().absorptions[0] > 1) == rebuilds
            del plan, pullback
            assert rule() is None
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

        def plunging(problems, config):
            results = []
            for _, _, xt, _ in problems:
                state["value"] -= 0.2
                results.append((state["value"], np.zeros_like(xt), 0.0))
            return results

        monkeypatch.setattr(otce.gradient, "_values_and_grads", plunging)
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


def stepwise(src, tgt, config, evaluate=f_otce_value_and_grad):
    """The ascent of optimize_target_embeddings taken one step at a time:
    each step draws its batches, is evaluated alone by ``evaluate`` and
    applied, and its trace row and divergence test run, before the next
    step draws. Returns the trace and the final target features."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    xt = tgt.features.copy()
    trace = np.empty((config.steps, 3))
    src_queue, tgt_queue = [], []
    previous, drop_run = None, 0
    for step in range(config.steps):
        if not tgt_queue:
            tgt_queue = list(rng.permutation(tgt.n))
        if not src_queue:
            src_queue = list(rng.permutation(src.n))
        take_t = min(config.target_batch, len(tgt_queue))
        take_s = min(config.source_batch, len(src_queue))
        batch_t = np.sort(np.array(tgt_queue[:take_t], dtype=np.intp))
        batch_s = np.sort(np.array(src_queue[:take_s], dtype=np.intp))
        del tgt_queue[:take_t], src_queue[:take_s]
        value, grad = evaluate(
            src.features[batch_s], src.labels[batch_s], xt[batch_t], tgt.labels[batch_t], config
        )
        xt[batch_t] += config.learning_rate * grad
        trace[step] = (step, value, float(np.linalg.norm(grad)))
        if previous is not None and value < previous - 0.1:
            drop_run += 1
            if drop_run >= 10:
                raise DivergenceDetected(
                    f"score fell by > 0.1 for 10 consecutive steps (step {step})"
                )
        else:
            drop_run = 0
        previous = value
    return trace, xt


def forward_value(problem, config):
    """f-otce of a problem (xs, ys, xt, yt) solved to exactly K iterations."""
    xs, ys, xt, yt = problem
    solver = SinkhornConfig(
        lam=config.sinkhorn.lam, max_iterations=config.unroll_iterations,
        marginal_tolerance=1e-300,
    )
    return f_otce(make_set(xs, ys), make_set(xt, yt), MetricConfig(sinkhorn=solver)).value


def guidance_pair(seed, per_class=20):
    """The guidance acceptance test's task: 3 classes in 2-d."""
    return generate_task_pair(SyntheticTaskSpec(
        classes=3, dim=2, samples_per_class=per_class, centroid_separation=4.0,
        domain_shift=2.0, label_permutation_fraction=0.3, seed=seed,
    ))


def assert_each_alone(problems, results, config):
    """Each stacked result equals the problem's evaluated alone, to the
    bit, and its value the solver's at exactly K iterations."""
    for problem, (value, grad, norm) in zip(problems, results):
        alone, alone_grad = f_otce_value_and_grad(*problem, config)
        assert value == alone and grad.tobytes() == alone_grad.tobytes()
        assert norm == float(np.linalg.norm(alone_grad))
        assert value == forward_value(problem, config)


class TestStackedEpoch:
    # optimize_target_embeddings evaluates the steps of a target epoch as
    # one stacked unrolled solve. Each step's value, gradient and trace row,
    # and the final targets, must be those of the ascent that evaluates
    # each step's batch alone, to the bit.

    def run(self, monkeypatch, src, tgt, config):
        """The stacked ascent against the stepwise one; returns the sizes
        of the stacks it solved."""
        calls = []
        evaluate = otce.gradient._values_and_grads

        def recording(problems, config):
            results = evaluate(problems, config)
            calls.append((problems, results))
            return results

        with monkeypatch.context() as patch:
            patch.setattr(otce.gradient, "_values_and_grads", recording)
            result = optimize_target_embeddings(src, tgt, config)
        trace, xt = stepwise(src, tgt, config)
        assert result.trace.tobytes() == trace.tobytes()
        assert result.target.features.tobytes() == xt.tobytes()
        for problems, results in calls:
            assert_each_alone(problems, results, config)
        return [len(problems) for problems, _ in calls]

    # 60 targets in batches of 25 make 3-step epochs of 25, 25 and 10
    # targets; 7 steps end one step into the third epoch.
    CONFIG = GradConfig(steps=7, learning_rate=5.0, unroll_iterations=30, seed=4)

    def test_short_last_batch(self, monkeypatch):
        assert self.run(monkeypatch, *guidance_pair(0), self.CONFIG) == [3, 3, 1]

    def test_batches_differ_in_rows_and_columns(self, monkeypatch):
        # 63 sources and targets in batches of 25: 25, 25 and 13 of each,
        # the source batches out of step with the target epochs. A padded
        # row of 13 entries would be summed in another order.
        config = GradConfig(
            steps=7, learning_rate=5.0, unroll_iterations=30, source_batch=25, seed=1
        )
        assert self.run(monkeypatch, *guidance_pair(1, per_class=21), config) == [3, 3, 1]

    def test_single_column_last_batch(self, monkeypatch):
        # 51 targets: a last batch of one, beside batches of 25 columns.
        src, tgt = guidance_pair(2, per_class=17)
        assert self.run(monkeypatch, src, tgt, self.CONFIG) == [3, 3, 1]

    def test_redone_half_steps(self, monkeypatch, redos):
        # A keep range narrowed to [e^-1, e^1], and the fold bound with it:
        # every scaling that leaves the range has its half-step redone in
        # log-sum-exp form, and they leave it throughout.
        monkeypatch.setattr(ot, "_SCALING_LO", np.exp(-1.0))
        monkeypatch.setattr(ot, "_SCALING_HI", np.exp(1.0))
        monkeypatch.setattr(ot, "_FOLD_HI", np.exp(1.0))
        assert self.run(monkeypatch, *guidance_pair(5), self.CONFIG) == [3, 3, 1]
        # Four runs of the 7 steps (stacked, stepwise, alone and at exactly
        # K iterations) redo far more half-steps than their starts, two a
        # solve at most.
        assert len(redos) > 3 * 2 * 7 * 4

    def test_whole_target_batch(self, monkeypatch):
        # A target batch covering the target set makes one-step epochs.
        config = GradConfig(
            steps=4, learning_rate=5.0, unroll_iterations=30, target_batch=60, seed=6
        )
        assert self.run(monkeypatch, *guidance_pair(6), config) == [1, 1, 1, 1]

    def test_sparse_problem_beside_dense(self, kernel_forms):
        # Clusters 30 apart rebuild a kernel with a sparse pattern, about
        # 1/40 nonzero; a random pair at lam 0.1 keeps a dense one.
        xs, xt = clustered_pair(1.0, size=5)
        ys, yt = np.arange(200) % 3, np.random.default_rng(1).integers(0, 3, size=200)
        rng = np.random.default_rng(2)
        dense = (
            rng.normal(size=(30, 2)), np.arange(30) % 3, rng.normal(size=(12, 2)), np.arange(12) % 2
        )
        problems = [(xs, ys, xt, yt), dense, (xs[:150], ys[:150], xt[::2], yt[::2])]
        config = GradConfig(unroll_iterations=37)
        results = otce.gradient._values_and_grads(problems, config)
        assert "sparse" in kernel_forms and "dense" in kernel_forms
        assert_each_alone(problems, results, config)

    def test_overflowing_problem_beside_finite(self):
        # At lam 1e-3 -cost/lam overflows on the far problem alone; the
        # near one is solved as if alone.
        rng = np.random.default_rng(3)
        labels = np.arange(10) % 2
        near = (rng.normal(size=(10, 2)), labels, rng.normal(size=(10, 2)), labels)
        far = (1e153 * near[0], labels, near[2], labels)
        config = GradConfig(sinkhorn=SinkhornConfig(lam=1e-3), unroll_iterations=5)
        finite, overflow = otce.gradient._values_and_grads([near, far], config)
        assert isinstance(overflow, NonFiniteGradient) and "overflows" in str(overflow)
        assert_each_alone([near], [finite], config)


class TestStepOrder:
    # The steps of a stacked epoch are applied in step order, so the step
    # that raises is the one the stepwise ascent raises at. Each step's
    # evaluation is scripted: a value that falls by 0.2 a step, and a
    # NonFiniteGradient at step ``failing``.

    @staticmethod
    def script(failing):
        steps = itertools.count()

        def evaluate(xs, ys, xt, yt, config):
            step = next(steps)
            if step == failing:
                raise NonFiniteGradient(f"step {step}")
            return -0.2 * step, np.zeros_like(xt)

        def stacked(problems, config):
            results = []
            for problem in problems:
                try:
                    value, grad = evaluate(*problem, config)
                except NonFiniteGradient as error:
                    results.append(error)
                else:
                    results.append((value, grad, 0.0))
            return results

        return evaluate, stacked

    @pytest.mark.parametrize("failing, error", [(11, DivergenceDetected), (9, NonFiniteGradient)])
    def test_raises_at_stepwise_step(self, monkeypatch, failing, error):
        # Steps 9, 10 and 11 make one epoch. The tenth consecutive drop is
        # at step 10: a failure at step 11 is evaluated with it and never
        # raised; one at step 9 is raised before the drop.
        src, tgt = guidance_pair(0)
        config = GradConfig(steps=30, seed=4)
        evaluate, _ = self.script(failing)
        with pytest.raises(error) as expected:
            stepwise(src, tgt, config, evaluate)
        _, stacked = self.script(failing)
        monkeypatch.setattr(otce.gradient, "_values_and_grads", stacked)
        with pytest.raises(error) as raised:
            optimize_target_embeddings(src, tgt, config)
        assert str(raised.value) == str(expected.value)
