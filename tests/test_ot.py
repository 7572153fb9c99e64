import itertools
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from otce import (
    GradConfig,
    SinkhornConfig,
    exact_ot_bruteforce,
    f_otce,
    f_otce_value_and_grad,
    sinkhorn,
    squared_euclidean_cost,
    transport_cost,
    uniform_marginal,
)
from otce import Coupling, ot
from otce.data import MASS_TOLERANCE, _adopt
from otce.ot import unrolled_sinkhorn
from otce.errors import DimensionMismatch, NonFiniteValue, NumericalOverflow, TooLarge

from conftest import clustered_pair, make_set


def _lse(a, axis):
    shift = a.max(axis=axis, keepdims=True)
    return (np.log(np.exp(a - shift).sum(axis=axis, keepdims=True)) + shift).squeeze(axis)


def kernel_of(rule):
    """The rule's kernel, dense: ``work``, or zero but for its pattern's
    entries while it holds one (``work`` is then scratch)."""
    if rule.pattern is None:
        return rule.work
    rows, cols, data = rule.pattern
    kernel = np.zeros_like(rule.work)
    kernel[rows, cols] = data
    return kernel


def step(rule, count=1):
    """``count`` steps of ``rule`` in the steps' error state (see the
    ``ot`` module docstring): the start divides by zero."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(count):
            rule.step()


def lse_sinkhorn_plan(cost, lam, iterations):
    """Reference: plain log-sum-exp Sinkhorn on uniform marginals from g = 0."""
    m, n = cost.shape
    kernel = -cost / lam
    f, g = np.zeros(m), np.zeros(n)
    for _ in range(iterations):
        f = np.log(1.0 / m) - _lse(kernel + g[None, :], 1)
        g = np.log(1.0 / n) - _lse(kernel + f[:, None], 0)
    return np.exp(kernel + f[:, None] + g[None, :])


class TestSquaredEuclideanCost:
    def test_identical_points(self):
        assert squared_euclidean_cost(np.array([[0.0]]), np.array([[0.0]])) == 0.0

    def test_scalar_distance(self):
        cost = squared_euclidean_cost(np.array([[0.0]]), np.array([[3.0]]))
        assert cost[0, 0] == 9.0

    def test_unit_vectors_to_origin(self):
        cost = squared_euclidean_cost(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 0.0]])
        )
        assert cost.tolist() == [[1.0], [1.0]]

    def test_role_symmetry(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(6, 3))
        assert np.allclose(
            squared_euclidean_cost(a, b), squared_euclidean_cost(b, a).T, atol=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            squared_euclidean_cost(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_non_negative(self, rng):
        x = rng.normal(size=(10, 5))
        assert (squared_euclidean_cost(x, x) >= 0).all()


class TestSinkhorn:
    def test_single_cell(self):
        result = sinkhorn(np.array([[5.0]]), np.ones(1), np.ones(1))
        assert result.coupling.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert result.transport_cost == pytest.approx(5.0, abs=1e-9)
        assert result.converged

    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1, 1.0])
    def test_zero_cost_max_entropy(self, lam):
        result = sinkhorn(
            np.zeros((2, 2)), uniform_marginal(2), uniform_marginal(2),
            SinkhornConfig(lam=lam),
        )
        assert np.allclose(result.coupling.values, 0.25, atol=1e-12)

    def test_sharp_permutation_plan(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        value, perm = exact_ot_bruteforce(cost)
        assert value == 0.0 and perm == (0, 1)
        result = sinkhorn(
            cost, uniform_marginal(2), uniform_marginal(2), SinkhornConfig(lam=1e-3)
        )
        expected = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert np.abs(result.coupling.values - expected).max() < 1e-3

    def test_converged_marginals_within_tolerance(self, rng):
        cost = rng.uniform(size=(7, 11))
        config = SinkhornConfig(lam=0.5)
        result = sinkhorn(cost, uniform_marginal(7), uniform_marginal(11), config)
        assert result.converged
        assert result.coupling.marginal_violation() <= config.marginal_tolerance
        assert result.final_marginal_error <= config.marginal_tolerance

    def test_nonconvergence_is_reported_not_raised(self, rng):
        cost = rng.uniform(size=(6, 6))
        result = sinkhorn(
            cost, uniform_marginal(6), uniform_marginal(6),
            SinkhornConfig(lam=1e-3, max_iterations=2),
        )
        assert not result.converged
        assert result.final_marginal_error > 1e-9

    def test_oracle_agreement_small_instances(self, rng):
        # a not-yet-converged plan is slightly infeasible and may sit a
        # hair below the exact optimum, so the bound is two-sided
        config = SinkhornConfig(lam=1e-3, max_iterations=20000)
        for n in (3, 4, 5, 6):
            cost = rng.uniform(size=(n, n))
            result = sinkhorn(cost, uniform_marginal(n), uniform_marginal(n), config)
            exact, _ = exact_ot_bruteforce(cost)
            assert abs(result.transport_cost - exact) <= 0.01 * exact

    def test_entropy_nondecreasing_in_lambda(self, rng):
        cost = rng.uniform(size=(5, 5))
        entropies = []
        for lam in (1e-3, 1e-2, 1e-1, 1.0):
            plan = sinkhorn(
                cost, uniform_marginal(5), uniform_marginal(5),
                SinkhornConfig(lam=lam, max_iterations=20000),
            ).coupling.values
            mass = plan[plan > 0]
            entropies.append(float(-(mass * np.log(mass)).sum()))
        assert all(a <= b + 1e-9 for a, b in zip(entropies, entropies[1:]))

    def test_permutation_equivariance(self, rng):
        cost = rng.uniform(size=(6, 4))
        perm = rng.permutation(6)
        base = sinkhorn(cost, uniform_marginal(6), uniform_marginal(4))
        permuted = sinkhorn(cost[perm], uniform_marginal(6), uniform_marginal(4))
        assert np.abs(base.coupling.values[perm] - permuted.coupling.values).max() < 1e-12

    def test_underflowing_kernel_row_survives(self):
        # second source point far from every target: its row of
        # exp(-cost/lam) underflows to zero, which the absorptions survive
        cost = np.array([[0.0, 1.0], [1e4, 1e4]])
        mu = uniform_marginal(2)
        result = sinkhorn(cost, mu, mu, SinkhornConfig(lam=1e-3))
        assert np.isfinite(result.transport_cost)
        assert result.coupling.marginal_violation() <= 1e-9 or not result.converged

    @pytest.mark.parametrize("lam", [1e-308, 5e-324])
    def test_kernel_overflow_raises(self, lam):
        # -cost/lam overflows: at 1e-308 the nonzero costs, at 5e-324 -1/lam
        # itself, which turns the zero costs into NaN. No warning escapes.
        cost = TestRedoPath.costs()[2]
        cost[0, 0] = 0.0
        config = SinkhornConfig(lam=lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (
                lambda: solo(cost, config),
                lambda: ot.batched_sinkhorn([cost, cost[:, 1:]], config),
                lambda: unrolled_sinkhorn([cost], config, 5),
            ):
                with pytest.raises(NumericalOverflow, match=f"lam={lam!r}"):
                    solve()

    def test_tiny_finite_kernel_solves(self):
        # At lam = 1e-300, -cost/lam is finite and the solvers run.
        cost = TestRedoPath.costs()[2]
        config = SinkhornConfig(lam=1e-300, max_iterations=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solo(cost, config)
            batch = ot.batched_sinkhorn([cost, cost[:, 1:]], config)
            [plan], _ = unrolled_sinkhorn([cost], config, 20)
        assert np.isfinite(result.coupling.values).all() and np.isfinite(result.transport_cost)
        assert np.isfinite(batch.transport_cost).all()
        assert plan.tobytes() == result.coupling.values.tobytes()

    @pytest.mark.parametrize("kind, seed", [
        ("uniform", 2), ("uniform", 3), ("squared", 0), ("squared", 1),
    ])
    def test_default_matches_log_sum_exp_across_absorptions(self, absorptions, kind, seed):
        # at lam = 1e-3 the potentials move by far more than the absorption
        # range within 300 iterations; uniform costs up to _ABSORB / 10
        # keep them doing so at any range
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            cost = (ot._ABSORB / 10.0) * rng.uniform(size=(6, 6))
        else:
            cost = squared_euclidean_cost(rng.normal(size=(8, 2)), rng.normal(size=(7, 2)))
        m, n = cost.shape
        result = sinkhorn(
            cost, uniform_marginal(m), uniform_marginal(n),
            SinkhornConfig(lam=1e-3, max_iterations=300, marginal_tolerance=1e-300),
        )
        assert result.iterations == 300
        assert len(absorptions) >= 2  # the start plus at least one
        reference = lse_sinkhorn_plan(cost, 1e-3, 300)
        assert np.abs(result.coupling.values - reference).max() <= 1e-12

    def test_bit_stable_across_runs(self, rng):
        cost = rng.uniform(size=(9, 9))
        a = sinkhorn(cost, uniform_marginal(9), uniform_marginal(9))
        b = sinkhorn(cost, uniform_marginal(9), uniform_marginal(9))
        assert np.array_equal(a.coupling.values, b.coupling.values)

    def test_marginal_validation(self):
        cost = np.zeros((2, 2))
        with pytest.raises(DimensionMismatch):
            sinkhorn(cost, np.array([0.6, 0.6]), uniform_marginal(2))
        with pytest.raises(DimensionMismatch):
            sinkhorn(cost, np.array([1.0, 0.0]), uniform_marginal(2))
        with pytest.raises(DimensionMismatch):
            sinkhorn(cost, uniform_marginal(3), uniform_marginal(2))
        with pytest.raises(DimensionMismatch):
            sinkhorn(cost, np.array([np.nan, 0.5]), uniform_marginal(2))
        with pytest.raises(DimensionMismatch):
            sinkhorn(cost, uniform_marginal(2), np.array([0.5, np.nan]))

    def test_non_finite_cost_rejected(self):
        cost = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            sinkhorn(cost, uniform_marginal(2), uniform_marginal(2))

    @pytest.mark.parametrize(
        "cost", [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(3), [[0.0, np.nan]]]
    )
    def test_batched_rejects_bad_cost(self, cost):
        # An empty cost ended in a ZeroDivisionError.
        with pytest.raises(DimensionMismatch):
            ot.batched_sinkhorn([np.ones((2, 2)), cost], SinkhornConfig())

    def test_config_validation(self):
        for lam in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                SinkhornConfig(lam=lam)
        with pytest.raises(ValueError):
            SinkhornConfig(max_iterations=0)
        # A count that is not an integer is rejected at construction, not
        # mid-solve; numpy integers are counts.
        for count in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="max_iterations must be an integer"):
                SinkhornConfig(max_iterations=count)
        # (np.eye(3) meets even this tolerance exactly at the second step.)
        config = SinkhornConfig(max_iterations=np.int64(3), marginal_tolerance=1e-300)
        cost = np.diag([1.0, 2.0, 3.0])
        assert sinkhorn(cost, uniform_marginal(3), uniform_marginal(3), config).iterations == 3
        for tolerance in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                SinkhornConfig(marginal_tolerance=tolerance)


class TestRedoPath:
    # A scaling that is not finite mid-solve, after several absorptions,
    # has its half-step redone in log-sum-exp form: the zeroed_row fixture
    # forces one. At lam = 1e-3 the potentials of these costs leave the
    # absorption range at 4 to 8 of the first half-steps.
    CONFIG = SinkhornConfig(lam=1e-3, max_iterations=300, marginal_tolerance=1e-300)

    @staticmethod
    def costs():
        rng = np.random.default_rng(0)
        return [
            squared_euclidean_cost(rng.normal(size=(m, 2)), rng.normal(size=(n, 2)))
            for m, n in ((20, 12), (24, 12), (20, 15))
        ]

    def test_sinkhorn(self, zeroed_row):
        cost = self.costs()[2]
        redone = zeroed_row(cost.shape, 2)
        result = solo(cost, self.CONFIG)
        assert redone == [True] and result.iterations == 300
        reference = lse_sinkhorn_plan(cost, self.CONFIG.lam, 300)
        assert np.abs(result.coupling.values - reference).max() <= 1e-12

    def test_batched_one_problem_redone(self, zeroed_row):
        # The last problem is redone while the others step on with their
        # bits unchanged.
        costs = self.costs()
        assert ot._batches([cost.shape for cost in costs]) == [[0, 1, 2]]
        unforced = ot.batched_sinkhorn(costs, self.CONFIG)
        redone = zeroed_row(costs[2].shape, 2)
        batch = ot.batched_sinkhorn(costs, self.CONFIG)
        assert redone == [True] and batch.iterations.tolist() == [300] * 3
        for k in (0, 1):
            assert batch.transport_cost[k].hex() == unforced.transport_cost[k].hex()
        for k, cost in enumerate(costs):
            reference = transport_cost(lse_sinkhorn_plan(cost, self.CONFIG.lam, 300), cost)
            assert batch.transport_cost[k] == pytest.approx(reference, rel=1e-12, abs=0)


class TestFold:
    # A fresh scaling out of range that is finite, positive and at most
    # e^(_ABSORB + _MARGIN / 2) is folded into the potentials as it
    # stands; any other has its half-step redone in log-sum-exp form. Only
    # the start's are redone in practice.
    CONFIG = TestRedoPath.CONFIG

    def test_folding_solvers_match_log_sum_exp(self, absorptions, redos):
        costs = TestRedoPath.costs()
        for cost in costs:
            absorptions.clear()
            redos.clear()
            result = solo(cost, self.CONFIG)
            # The start's one or two redos, and folds after them.
            assert len(redos) <= 2 < len(absorptions) - len(redos)
            reference = lse_sinkhorn_plan(cost, self.CONFIG.lam, 300)
            assert np.abs(result.coupling.values - reference).max() <= 1e-12
            [plan], _ = unrolled_sinkhorn([cost], self.CONFIG, 300)
            assert plan.tobytes() == result.coupling.values.tobytes()
        absorptions.clear()
        redos.clear()
        batch = ot.batched_sinkhorn(costs, self.CONFIG)
        assert len(redos) <= 2 * 3 < len(absorptions) - len(redos)
        for k, cost in enumerate(costs):
            reference = transport_cost(lse_sinkhorn_plan(cost, self.CONFIG.lam, 300), cost)
            assert batch.transport_cost[k] == pytest.approx(reference, rel=1e-12, abs=0)

    # Each forced scaling sits in row (or column) 0 of an otherwise
    # in-range fresh scaling: (its value, whether it is folded).
    FORCED = [
        pytest.param(lambda: ot._SCALING_HI * 2.0, True, id="above-range"),
        pytest.param(lambda: ot._FOLD_HI, True, id="at-fold-bound"),
        pytest.param(lambda: ot._SCALING_LO / 2.0, True, id="below-range"),
        pytest.param(lambda: 1e-300, True, id="tiny"),
        pytest.param(lambda: ot._FOLD_HI * 2.0, False, id="past-fold-bound"),
        pytest.param(lambda: 0.0, False, id="zero"),
        pytest.param(lambda: np.inf, False, id="inf"),
        pytest.param(lambda: np.nan, False, id="nan"),
    ]

    @pytest.mark.parametrize("axis", [0, 1], ids=["row", "column"])
    @pytest.mark.parametrize("value, folds", FORCED)
    def test_forced_scaling(self, redos, axis, value, folds):
        cost = TestRedoPath.costs()[2]
        m, n = cost.shape
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), 0.1)
        step(rule)
        F, G, u, v = rule.F, rule.G, rule.u, rule.v
        fresh = np.ones(n if axis else m)
        fresh[0] = value()
        redos.clear()
        setattr(rule, "v" if axis else "u", fresh)
        with np.errstate(divide="ignore", invalid="ignore"):
            (rule._absorb_col if axis else rule._absorb_row)()
        assert len(redos) == (not folds)
        assert np.isfinite(rule.F).all() and np.isfinite(rule.G).all()
        if folds:
            if axis:
                v = fresh
            else:
                u = fresh
            assert rule.F.tobytes() == (F + np.log(u)).tobytes()
            assert rule.G.tobytes() == (G + np.log(v)).tobytes()

    @pytest.mark.parametrize("value, folds", FORCED)
    def test_forced_scaling_batched(self, redos, value, folds):
        # Only the forced problem absorbs, and it folds or redoes alone.
        costs = TestRedoPath.costs()
        batch = ot._Batch(costs, 0.1)
        step(batch)
        fresh = np.ones_like(batch.u)
        fresh[2, 0] = value()
        with np.errstate(divide="ignore", invalid="ignore"):
            # Taken first: the absorption resets the fresh u to 1 in place.
            folded = batch.F[2] + np.log(fresh[2])
            redos.clear()
            batch.u = fresh
            batch._absorb_row()
        assert len(redos) == (not folds) and all(cost is costs[2] for cost in redos)
        assert np.isfinite(batch.F).all()
        if folds:
            assert batch.F[2].tobytes() == folded.tobytes()

    def test_redos_only_at_start(self, absorptions, redos):
        # A guard against the dense redo coming back: f-otce on an
        # absorbing clustered pair, and a batch of its blocks, redo only
        # the start's half-steps while they absorb many times.
        xs, xt = clustered_pair(3.0)
        labels = np.arange(xs.shape[0]) % 10
        f_otce(make_set(xs, labels), make_set(xt, labels))
        assert len(redos) <= 2 and len(absorptions) >= 6
        blocks = TestSparseBatch.blocks(squared_euclidean_cost(xs, xt))
        absorptions.clear()
        redos.clear()
        ot.batched_sinkhorn(blocks, SinkhornConfig(lam=0.1, max_iterations=300))
        # The blocks differ in shape, which tells their records apart.
        assert len({block.shape for block in blocks}) == 4
        assert max(Counter(cost.shape for cost in redos).values()) <= 2
        assert min(Counter(cost.shape for cost in absorptions).values()) >= 4


def column_violation(rule, F, G, u, v):
    """The column violation of the plan exp(-cost/lam + F + G) u v^T on
    ``rule``'s cost and marginals, from the potentials and scalings alone
    (no kernel floor)."""
    plan = np.exp(rule.cost * rule.scale + (F + np.log(u))[:, None] + (G + np.log(v))[None, :])
    return np.abs(plan.sum(axis=0) - rule.nu).max()


class TestStopEstimate:
    # The cheap estimate is the column violation of the plan before the
    # last column half, read from that half's fresh scaling as it was
    # before any absorption. It must agree with the violation computed
    # from the state ``before`` holds, whether the column half kept its
    # scaling, folded it or redid the half-step. At lam = 1e-3 the first
    # column half of the first and third costs finds some column with no
    # kernel entry above the floor, so its scaling is infinite and it is
    # redone.
    CONFIG = TestRedoPath.CONFIG

    @staticmethod
    def kind(scaling):
        """How a column half took its fresh scaling."""
        if ot._in_range(scaling):
            return "kept"
        return "folded" if ot._foldable(scaling) else "redone"

    @staticmethod
    def assert_agrees(rule, violations):
        """``near`` selects problem k at tolerances just above
        violations[k] and not just below it."""
        for k, violation in enumerate(violations):
            slack = 1e-9 * violation
            assert k in rule.near(violation + slack)
            assert k not in rule.near(violation - slack)

    def test_rule(self):
        cost = TestRedoPath.costs()[2]
        m, n = cost.shape
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), self.CONFIG.lam)
        kinds, infinite = [], []
        for _ in range(300):
            step(rule)
            kinds.append(self.kind(rule.fresh))
            infinite.append(np.isinf(rule.fresh).any())
            _, F, G, u, v = rule.before
            self.assert_agrees(rule, [column_violation(rule, F, G, u, v)])
        assert kinds[0] == "redone" and infinite[0]
        assert kinds.count("folded") >= 2 and kinds.count("kept") >= 200

    def test_batch(self, monkeypatch):
        # Each absorbing problem writes its F, G, u and v back into the
        # stacks in place, so the state before each column half that
        # leaves range is copied as it stood.
        states = []
        absorb_col = ot._Batch._absorb_col

        def copying(batch):
            states.append([stack.copy() for stack in batch.before[1:]])
            absorb_col(batch)

        monkeypatch.setattr(ot._Batch, "_absorb_col", copying)
        costs = TestRedoPath.costs()
        batch = ot._Batch(costs, self.CONFIG.lam)
        kinds, infinite = [], []
        for _ in range(300):
            step(batch)
            F, G, u, v = states.pop() if states else batch.before[1:]
            violations = []
            for k, (m, n) in enumerate(batch.shapes):
                kinds.append(self.kind(batch.fresh[k, :n]))
                infinite.append(np.isinf(batch.fresh[k, :n]).any())
                problem = batch.problem(k)
                violations.append(column_violation(problem, F[k, :m], G[k, :n], u[k, :m], v[k, :n]))
            self.assert_agrees(batch, violations)
        assert kinds[:3] == ["redone", "kept", "redone"] and infinite[:3] == [True, False, True]
        assert kinds.count("folded") >= 6 and kinds.count("kept") >= 600


class TestKernelRebuild:
    # An absorption rebuilds the kernel by a dense exp masked afterwards,
    # or by an exp over the entries above the floor alone, which are then
    # its pattern, chosen by the share of entries above the floor; both
    # must give the same bytes, the sparse one scattered from its pattern.
    @pytest.mark.parametrize(
        "shape, lam, dense",
        [((100, 98), 0.03, True), ((1000, 1000), 0.0025, False)],
        ids=["class-pair", "score-f"],
    )
    def test_forms_give_identical_bytes(self, monkeypatch, shape, lam, dense):
        m, n = shape
        rng = np.random.default_rng(3)
        cost = squared_euclidean_cost(rng.normal(size=(m, 8)), rng.normal(size=(n, 8)))
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), lam)
        step(rule)  # the first row half is redone, absorbed and builds the kernel
        floor = ot._floor(rule.log_mu, rule.log_nu)
        above = rule.cost * rule.scale + rule.F[:, None] + rule.G[None, :] > floor
        assert (above.mean() > ot._SPARSE_SHARE) == dense
        built, patterns = [], []
        for share in (0.0, 1.0):  # forces the dense form, then the sparse one
            monkeypatch.setattr(ot, "_SPARSE_SHARE", share)
            out = np.empty_like(rule.work)
            patterns.append(rule._build(rule.F, rule.G, out))
            built.append(out)
        # The dense form writes the kernel; the sparse one returns its
        # nonzeros, row-major, and leaves ``out`` as scratch.
        assert patterns[0] is None
        rows, cols, data = patterns[1]
        scattered = np.zeros_like(built[0])
        scattered[rows, cols] = data
        assert [built[0].tobytes(), scattered.tobytes()] == [kernel_of(rule).tobytes()] * 2
        index = np.flatnonzero(built[0])
        assert np.array_equal(rows * n + cols, index)


def clustered_cost(noise):
    return squared_euclidean_cost(*clustered_pair(noise))


class TestSparseKernel:
    # A rebuild that leaves at most _SPARSE_SHARE of the kernel nonzero
    # runs the matvecs as bincounts over its nonzeros. Both forms take
    # the same steps; only the row sums round differently.
    @staticmethod
    def solve(monkeypatch, cost, share):
        monkeypatch.setattr(ot, "_SPARSE_SHARE", share)
        m, n = cost.shape
        return sinkhorn(cost, uniform_marginal(m), uniform_marginal(n), SinkhornConfig(lam=0.1))

    @staticmethod
    def assert_agree(dense, other):
        assert dense.iterations == other.iterations
        assert dense.converged == other.converged
        plan = dense.coupling.values
        assert np.abs(other.coupling.values - plan).max() <= 1e-15 * plan.max()
        assert other.transport_cost == pytest.approx(dense.transport_cost, rel=1e-12)

    @pytest.mark.parametrize(
        "noise, converged", [(0.3, True), (3.0, False)], ids=["converging", "absorbing"]
    )
    def test_forms_agree(self, monkeypatch, absorptions, kernel_forms, noise, converged):
        cost = clustered_cost(noise)
        m, n = cost.shape
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), 0.1)
        step(rule)
        assert np.count_nonzero(kernel_of(rule)) <= 0.03 * rule.work.size
        results, counts = [], []
        for share, form in ((0.0, "dense"), (1.0, "sparse")):
            absorptions.clear()
            kernel_forms.clear()
            results.append(self.solve(monkeypatch, cost, share))
            assert set(kernel_forms) == {form}
            counts.append(len(absorptions))
        assert counts[0] == counts[1] >= (1 if converged else 2)
        assert results[0].converged == converged
        self.assert_agree(*results)

    def test_switching_forms_agree(self, monkeypatch, kernel_forms):
        # The kernel's nonzeros grow over the rebuilds (1317 to 1453 of
        # 160 000 at _ABSORB = 60), so a share between the first and the
        # last count holds the pattern for the first ones only, and a
        # later rebuild must drop it.
        cost = clustered_cost(3.0)
        nonzeros = []
        build = ot._Rule._build

        def counted(rule, f, g, out):
            pattern = build(rule, f, g, out)
            nonzeros.append(np.count_nonzero(out) if pattern is None else pattern[2].size)
            return pattern

        monkeypatch.setattr(ot._Rule, "_build", counted)
        dense = self.solve(monkeypatch, cost, 0.0)
        assert nonzeros[0] < nonzeros[-1]
        kernel_forms.clear()
        switching = self.solve(monkeypatch, cost, (nonzeros[0] + nonzeros[-1]) / 2 / cost.size)
        assert kernel_forms[0] == "sparse" and kernel_forms[-1] == "dense"
        self.assert_agree(dense, switching)

    def test_column_products_bit_identical(self):
        # Each column sum adds the same products in the same row order.
        cost = clustered_cost(3.0)
        m, n = cost.shape
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), 0.1)
        step(rule, 50)
        assert rule.pattern is not None
        kernel = kernel_of(rule)
        dense = np.einsum(rule._KTU, kernel, rule.u)
        assert rule._matvec(rule.u, 1).tobytes() == dense.tobytes()
        rows = rule._matvec(rule.v, 0)
        assert np.abs(rows - np.einsum(rule._KV, kernel, rule.v)).max() <= 1e-15 * rows.max()
        # The plan scatters the dense form's products from the pattern.
        cost = class_cost()
        rule = ot._Rule.on(cost, uniform_marginal(300), uniform_marginal(300), 0.1)
        step(rule, 50)
        assert rule.pattern is not None
        dense = kernel_of(rule) * rule.u[:, None] * rule.v[None, :]
        assert rule.plan().tobytes() == dense.tobytes()


def solo(cost, config):
    m, n = cost.shape
    return sinkhorn(cost, uniform_marginal(m), uniform_marginal(n), config)


class TestDenseBatch:
    # A _Batch's dense products are each problem's 2-D einsum, to the bit,
    # whatever the stack pads: rows, columns, or a one-column or one-row
    # problem beside wider ones. At lam = 1 every kernel entry lies above
    # the floor, so the start's rebuild leaves each problem's kernel dense.
    @pytest.mark.parametrize(
        "shapes",
        [
            [(30, 12), (30, 12), (30, 7)],
            [(30, 12), (30, 1), (30, 13)],
            [(20, 12), (1, 12), (30, 5)],
        ],
    )
    def test_products_equal_2d(self, shapes):
        rng = np.random.default_rng(5)
        costs = [10.0 * rng.random(shape) for shape in shapes]
        batch = ot._Batch(costs, 1.0)
        step(batch)
        v = 1.0 + rng.random(batch.v.shape)
        u = 1.0 + rng.random(batch.u.shape)
        rows, cols = batch._matvec(v, 0), batch._matvec(u, 1)
        for k, (m, n) in enumerate(shapes):
            rule = ot._Rule.on(costs[k], uniform_marginal(m), uniform_marginal(n), 1.0)
            step(rule)
            kernel = rule.work
            assert rule.pattern is None and kernel.tobytes() == batch.work[k, :m, :n].tobytes()
            assert rows[k, :m].tobytes() == np.einsum("ij,j->i", kernel, v[k, :n]).tobytes()
            assert cols[k, :n].tobytes() == np.einsum("ij,i->j", kernel, u[k, :m]).tobytes()
            # The padding's products are 1, so its scalings stay 1.
            assert (rows[k, m:] == 1.0).all() and (cols[k, n:] == 1.0).all()


class TestSparseBatch:
    # A batch whose problems all hold their patterns steps its padded
    # stack by one bincount over the stacked nonzeros, each problem's in
    # its own row-major order, so each problem's sums are those of its
    # solo solve, term for term.
    @staticmethod
    def blocks(cost):
        """Blocks of unequal shapes cutting across the clusters, one batch."""
        blocks = [cost[:200, :200], cost[200:, 170:], cost[:240, 100:300], cost[150:, 180:]]
        assert ot._batches([block.shape for block in blocks]) == [[0, 1, 2, 3]]
        return blocks

    @staticmethod
    def assert_bit_identical(blocks, config):
        batch = ot.batched_sinkhorn(blocks, config)
        for k, block in enumerate(blocks):
            alone = solo(block, config)
            assert batch.iterations[k] == alone.iterations
            assert batch.converged[k] == alone.converged
            assert batch.final_marginal_error[k].hex() == alone.final_marginal_error.hex()
            assert batch.transport_cost[k].hex() == alone.transport_cost.hex()
        return batch

    def test_stack_steps_sparse(self, batch_forms, kernel_forms, stackless):
        blocks = self.blocks(clustered_cost(3.0))
        batch = self.assert_bit_identical(blocks, SinkhornConfig(lam=0.1, max_iterations=300))
        # Every problem runs to the cap, rebuilding its kernel many times.
        assert batch.iterations.tolist() == [300] * 4
        assert len(kernel_forms) >= 4 * 8 and set(kernel_forms) == {"sparse"}
        # Each step runs one matvec pair, the first row product over the
        # empty kernel, and no dense stack is held while the stack steps
        # sparse.
        assert len(batch_forms) == 2 * 300 and set(batch_forms) == {"sparse"}
        assert stackless == [True] * 2 * 300

    def test_problems_stopping_mid_run(self, batch_forms, stackless):
        # Two blocks of tight clusters, cut along cluster bounds, converge,
        # each at its own iteration, while the loose ones run on. Each
        # stop drops a problem from the stacks, moving the later ones to
        # lower slices, and the stacked pattern is laid out again.
        tight, loose = clustered_cost(0.3), clustered_cost(3.0)
        blocks = [tight[:200, :200], loose[200:, 170:], tight[160:, 160:], loose[150:, 180:]]
        batch = self.assert_bit_identical(blocks, SinkhornConfig(lam=0.1, max_iterations=300))
        first, _, second, _ = stops = batch.iterations.tolist()
        assert stops[1] == stops[3] == 300 and first != second and max(first, second) < 300
        assert batch.converged.tolist() == [True, False, True, False]
        assert set(batch_forms) == {"sparse"} and all(stackless)

    def test_column_fold_at_a_stop(self):
        # At this tolerance the third cost stops at iteration 1243, the
        # first whose cheap estimate and true error both meet it, and its
        # column half folds there: the estimate that opens the stop check
        # is the one read after a fold. The others stop earlier, each at
        # its own iteration.
        costs = TestRedoPath.costs()
        config = SinkhornConfig(lam=1e-3, max_iterations=3000, marginal_tolerance=0.0445)
        batch = self.assert_bit_identical(costs, config)
        assert batch.converged.all() and batch.iterations.tolist() == [787, 106, 1243]
        m, n = costs[2].shape
        rule = ot._Rule.on(costs[2], uniform_marginal(m), uniform_marginal(n), config.lam)
        step(rule, 1243)
        assert TestStopEstimate.kind(rule.fresh) == "folded"

    def test_dense_rebuild_mid_run(self, monkeypatch, batch_forms, stackless):
        # One problem's second rebuild, after the stack has stepped sparse,
        # reports its kernel dense. The batch holds a dense stack for that
        # kernel and steps it dense until that problem's next rebuild, then
        # drops the stack and lays out the stacked pattern again. Values
        # agree with the unforced run to rounding.
        blocks = self.blocks(clustered_cost(3.0))
        config = SinkhornConfig(lam=0.1, max_iterations=300)
        unforced = ot.batched_sinkhorn(blocks, config)
        build, rebuilds = ot._Rule._build, []

        def forced(rule, f, g, out):
            pattern = build(rule, f, g, out)
            if out.shape == blocks[2].shape:
                rebuilds.append(pattern)
                if len(rebuilds) == 2:
                    return None
            return pattern

        monkeypatch.setattr(ot._Rule, "_build", forced)
        batch_forms.clear()
        stackless.clear()
        batch = ot.batched_sinkhorn(blocks, config)
        assert len(rebuilds) > 2 and all(pattern is not None for pattern in rebuilds)
        start = batch_forms.index("dense")
        dense = batch_forms.count("dense")
        tail = len(batch_forms) - start - dense
        assert start > 0 and tail > 0
        assert batch_forms == ["sparse"] * start + ["dense"] * dense + ["sparse"] * tail
        assert stackless == [form == "sparse" for form in batch_forms]
        assert batch.iterations.tolist() == unforced.iterations.tolist()
        expected = unforced.transport_cost
        np.testing.assert_allclose(batch.transport_cost, expected, rtol=1e-12, atol=0)

    def test_dense_problem_keeps_stack_dense(self, batch_forms, kernel_forms):
        # Uniform costs up to 50 leave about 1/4 of a kernel nonzero,
        # above _SPARSE_SHARE, so the stack steps dense though the other
        # problems' rebuilds hold their patterns, and sparse once that
        # problem has converged and left. Each problem takes its own form's
        # products, so values equal the solo solves' to the bit.
        wide = 50.0 * np.random.default_rng(0).random((200, 220))
        blocks = [*self.blocks(clustered_cost(3.0))[:3], wide]
        config = SinkhornConfig(lam=0.1, max_iterations=300)
        batch = ot.batched_sinkhorn(blocks, config)
        stop = batch.iterations[3]
        assert batch.converged.tolist() == [False, False, False, True] and stop < 280
        # The first row product runs over the empty kernel, sparse.
        assert batch_forms == ["sparse"] + ["dense"] * (2 * stop - 1) + ["sparse"] * 2 * (300 - stop)
        assert "sparse" in kernel_forms and "dense" in kernel_forms
        reference = [solo(block, config) for block in blocks]
        assert batch.iterations.tolist() == [result.iterations for result in reference]
        assert batch.converged.tolist() == [result.converged for result in reference]
        expected = np.array([result.transport_cost for result in reference])
        assert batch.transport_cost.tobytes() == expected.tobytes()
        errors = np.array([result.final_marginal_error for result in reference])
        assert batch.final_marginal_error.tobytes() == errors.tobytes()

    def test_pattern_corners_unread(self, monkeypatch):
        # While the dense problem holds the stack, the other problems hold
        # their patterns, and their corners of the stack hold no kernel:
        # their products and plans come from their patterns alone. NaN
        # written into those corners before each matvec from mid-run on
        # moves no product, plan or stopping iteration by a bit. (Their
        # padding stays zero: it gives the padded products.)
        wide = 50.0 * np.random.default_rng(0).random((200, 220))
        blocks = [*self.blocks(clustered_cost(3.0))[:3], wide]
        config = SinkhornConfig(lam=0.1, max_iterations=300)
        matvec = ot._Batch._matvec

        def solve(poison):
            products, poisoned = [], []

            def recording(batch, scaling, axis):
                if poison and len(products) >= 100 and batch.work is not None:
                    for k in batch.sparse:
                        m, n = batch.shapes[k]
                        batch.work[k, :m, :n] = np.nan
                    poisoned.append(batch.sparse)
                products.append(matvec(batch, scaling, axis))
                return products[-1]

            monkeypatch.setattr(ot._Batch, "_matvec", recording)
            batch = ot._Batch(blocks, config.lam)
            return products, list(ot._stops(batch, list(range(4)), config)), poisoned

        products, stops, _ = solve(poison=False)
        poisoned_products, poisoned_stops, poisoned = solve(poison=True)
        # The dense problem stops first, near iteration 260; until then
        # the stack is held, so the three others' corners are poisoned
        # before each of its matvecs from the 100th on.
        assert [name for name, *_ in stops] == [3, 0, 1, 2] and stops[0][2] > 200
        assert len(poisoned) == 2 * stops[0][2] - 100
        assert all(sparse == [0, 1, 2] for sparse in poisoned)
        assert len(poisoned_products) == len(products)
        for product, poisoned_product in zip(products, poisoned_products):
            assert poisoned_product.tobytes() == product.tobytes()
        for (name, plan, iterations, error), poisoned_stop in zip(stops, poisoned_stops):
            assert poisoned_stop[0] == name and poisoned_stop[2] == iterations
            assert poisoned_stop[1].tobytes() == plan.tobytes()
            assert poisoned_stop[3].hex() == error.hex()

    def test_traced_peak_bounded(self):
        # While the stack steps sparse, a batched solve holds no dense
        # padded stack: its traced peak stays within 8 bytes for each of
        # the blocks' E entries (their -cost/lam), the S entries of one
        # padded stack (plans, patterns and the small stacks) and the
        # R x C scratch.
        blocks = self.blocks(clustered_cost(3.0))
        rows, cols = (max(extent) for extent in zip(*(block.shape for block in blocks)))
        entries = sum(block.size for block in blocks)
        bound = 8 * (entries + len(blocks) * rows * cols + rows * cols)
        tracemalloc.start()
        try:
            ot.batched_sinkhorn(blocks, SinkhornConfig(lam=0.1, max_iterations=300))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


def class_cost(classes=10, size=30, dim=64, separation=5.0, seed=0):
    """Squared distances between two unit-noise clouds around the same
    class centroids, pairwise ``separation`` apart: jc-otce's main solve
    in miniature. At lam = 0.1 ~70% of each rebuilt kernel lies above
    exp(-700) but under 3% above the floor."""
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.normal(size=(dim, classes)))
    centers = (separation / np.sqrt(2.0)) * frame.T
    labels = np.repeat(np.arange(classes), size)
    xs = centers[labels] + rng.normal(size=(labels.size, dim))
    xt = centers[labels] + rng.normal(size=(labels.size, dim))
    return squared_euclidean_cost(xs, xt)


class TestKernelFloor:
    # A rebuilt kernel is exactly zero below the rule's floor, whose
    # dropped entries move no kept matvec by more than 2^-53 e^-20.
    def test_floor_values(self):
        # ln tau = -(2 _ABSORB + 53 ln 2 + 20 + ln n - ln min mu) at _ABSORB = 60.
        uniform = np.log(uniform_marginal(1000))
        assert ot._floor(uniform, uniform) == pytest.approx(-190.55, abs=0.01)
        small = np.log(uniform_marginal(100))
        assert ot._floor(small, small) == pytest.approx(-185.95, abs=0.01)
        # A tiny marginal entry would put the floor below the clamp.
        tiny = np.log(np.array([1e-300, 1.0]))
        assert ot._floor(tiny, np.log(uniform_marginal(3))) == ot._EXP_CLAMP

    def test_range_limits(self):
        # The keep range is [e^-_ABSORB, e^_ABSORB]. Two things bound it: a
        # kept product tau e^-_ABSORB must be a normal double, and the
        # floor must lie above the clamp, here at 1000 x 1000 uniform.
        assert ot._SCALING_LO == np.exp(-ot._ABSORB)
        assert ot._SCALING_HI == np.exp(ot._ABSORB)
        uniform = np.log(uniform_marginal(1000))
        floor = ot._floor(uniform, uniform)
        assert np.exp(floor - ot._ABSORB) > np.finfo(float).tiny
        assert floor > ot._EXP_CLAMP

    @pytest.mark.parametrize("make", [lambda: clustered_cost(3.0), class_cost],
                             ids=["clustered", "class"])
    def test_matches_clamp_floor(self, monkeypatch, absorptions, make):
        cost = make()
        m, n = cost.shape
        results, counts = [], []
        for floor in (ot._floor, lambda log_mu, log_nu: ot._EXP_CLAMP):
            monkeypatch.setattr(ot, "_floor", floor)
            absorptions.clear()
            results.append(
                sinkhorn(cost, uniform_marginal(m), uniform_marginal(n), SinkhornConfig(lam=0.1))
            )
            counts.append(len(absorptions))
        assert counts[0] == counts[1] >= 2
        TestSparseKernel.assert_agree(*results)

    def test_matvecs_match_untruncated_kernel(self):
        cost = clustered_cost(3.0)
        m, n = cost.shape
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), 0.1)
        step(rule, 200)
        exponent = rule.cost * rule.scale + rule.F[:, None] + rule.G[None, :]
        # The floor has dropped entries the clamp would keep, and the
        # scalings are near the edge of their range.
        assert ((kernel_of(rule) == 0) & (exponent > ot._EXP_CLAMP)).any()
        assert np.abs(np.log(np.r_[rule.u, rule.v])).max() > 20
        exact = np.exp(exponent)
        for axis, scaling in ((0, rule.v), (1, rule.u)):
            reference = np.einsum(rule._KTU if axis else rule._KV, exact, scaling)
            assert np.abs(rule._matvec(scaling, axis) / reference - 1.0).max() <= 1e-15

    def test_class_structured_rebuilds_are_sparse(self, kernel_forms):
        cost = class_cost()
        m, n = cost.shape
        sinkhorn(cost, uniform_marginal(m), uniform_marginal(n), SinkhornConfig(lam=0.1))
        assert len(kernel_forms) >= 2 and set(kernel_forms) == {"sparse"}


class TestRangeTest:
    # _Rule.step keeps a fresh 1-D scaling only if the entries at its
    # argmin and argmax lie in range; argmin and argmax take the first
    # NaN, so a NaN at any position, inside or past a SIMD block, fails.
    @pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 33, 64, 257])
    def test_nan_anywhere_is_not_kept(self, size):
        mu = uniform_marginal(size)
        rule = ot._Rule.on(np.zeros((size, 3)), mu, uniform_marginal(3), 0.1)
        # Past the start's absorption, the row products are in range.
        step(rule)
        matvec = rule._matvec
        for position in {0, size // 2, size - 1}:
            products = np.ones(size)
            products[position] = np.nan
            rule._matvec = lambda scaling, axis: matvec(scaling, axis) if axis else products
            absorptions = rule.absorptions
            step(rule)
            # Not kept: a NaN is not folded either, so the row half is
            # redone, from the potentials, and leaves u = 1.
            assert rule.before[0] == absorptions + 1
            assert np.isfinite(rule.before[1]).all() and (rule.before[3] == 1.0).all()


class TestErrorState:
    # The steps need division by zero, invalid results and overflow
    # ignored. The solvers and the unrolled forward enter that state once
    # per run of steps, never once per step, and leave the caller's state
    # in force whenever they return or yield.
    CALLER = {"divide": "raise", "over": "warn", "under": "ignore", "invalid": "raise"}

    @staticmethod
    def absorbing_cost():
        # At lam = 0.01 the steps absorb and rebuild the kernel.
        rng = np.random.default_rng(2)
        return squared_euclidean_cost(rng.normal(size=(30, 2)), rng.normal(size=(12, 2)))

    def test_caller_state_kept(self):
        cost = self.absorbing_cost()
        config = SinkhornConfig(lam=0.01)
        with np.errstate(**self.CALLER):
            sinkhorn(cost, uniform_marginal(30), uniform_marginal(12), config)
            assert np.geterr() == self.CALLER
            ot.batched_sinkhorn([cost, cost[:20, :10], cost[5:, 2:]], config)
            assert np.geterr() == self.CALLER
            [plan], pullback = unrolled_sinkhorn([cost], config, 30)
            assert np.geterr() == self.CALLER
            pullback([np.ones_like(plan)])
            assert np.geterr() == self.CALLER
            labels = np.arange(30) % 3
            f_otce_value_and_grad(
                cost[:, :2], labels, cost[:12, :2], labels[:12],
                GradConfig(sinkhorn=config, unroll_iterations=30),
            )
            assert np.geterr() == self.CALLER

    @pytest.mark.parametrize("batched", [False, True])
    def test_caller_state_kept_while_suspended(self, batched):
        # A tight-cluster block converges early, while the loose ones run on.
        tight, loose = clustered_cost(0.3)[:120, :120], clustered_cost(3.0)[:100, :110]
        config = SinkhornConfig(lam=0.1, max_iterations=300)
        if batched:
            rule, problems = ot._Batch([tight, loose, loose], config.lam), [0, 1, 2]
        else:
            rule, problems = ot._Rule.on(tight, uniform_marginal(120), uniform_marginal(120),
                                         config.lam), [0]
        with np.errstate(**self.CALLER):
            stops = ot._stops(rule, problems, config)
            name, _, iterations, _ = next(stops)
            assert name == 0 and iterations < 300
            assert np.geterr() == self.CALLER
            assert [name for name, *_ in stops] == problems[1:]
            assert np.geterr() == self.CALLER

    def test_entries_do_not_grow_with_steps(self, monkeypatch):
        # A call budget: the count of error-state entries of a solve or an
        # unrolled forward and reverse does not grow with its steps.
        entries = []
        errstate = np.errstate

        def counting(**kwargs):
            entries.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counting)
        cost = self.absorbing_cost()
        counts = []
        for iterations in (10, 50):
            entries.clear()
            [plan], pullback = unrolled_sinkhorn([cost], SinkhornConfig(lam=0.01), iterations)
            pullback([np.ones_like(plan)])
            counts.append(len(entries))
        for iterations in (100, 400):
            # A tolerance no plan meets runs the solve to its cap.
            config = SinkhornConfig(lam=0.01, max_iterations=iterations, marginal_tolerance=1e-300)
            entries.clear()
            result = sinkhorn(cost, uniform_marginal(30), uniform_marginal(12), config)
            assert result.iterations == iterations
            counts.append(len(entries))
        assert counts == [2, 2, 1, 1]


class TestTransportCost:
    def test_zero_cost(self):
        plan = np.full((3, 3), 1 / 9)
        assert transport_cost(plan, np.zeros((3, 3))) == 0.0

    def test_single_cell(self):
        assert transport_cost(np.array([[1.0]]), np.array([[5.0]])) == 5.0

    def test_uniform_cross(self):
        plan = np.full((2, 2), 0.25)
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert transport_cost(plan, cost) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            transport_cost(np.zeros((2, 2)), np.zeros((2, 3)))


class TestAdoptedPlan:
    # sinkhorn's Coupling holds the plan the solve wrote (with a sparse
    # final kernel, the rule's own ``work``), adopted rather than copied,
    # and its transport cost is formed in the rule's ``work``.
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lam, sparse", [(0.1, True), (1e4, False)])
    def test_solve(self, lam, sparse, order):
        cost = np.asarray(clustered_cost(3.0), order=order)
        before = cost.copy()
        m, n = cost.shape
        result = sinkhorn(cost, uniform_marginal(m), uniform_marginal(n), SinkhornConfig(lam=lam))
        assert (result._support is not None) == sparse
        assert result.transport_cost.hex() == transport_cost(result.coupling, cost).hex()
        # A plan is in C order whatever the cost's, as the rule's ``work``
        # is. The transport cost's sum runs in that order.
        assert result.coupling.values.flags.c_contiguous
        assert np.array_equal(cost, before)
        for arr in (result.coupling.values, result.coupling.row_marginal, result.coupling.col_marginal):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_negative_cost_leaves_no_negative_zero(self):
        # The sparse plan is ``work``, where the transport products are
        # formed: 0 times a negative cost is -0.0, which must not stay.
        cost = clustered_cost(3.0)
        cost -= cost.mean()
        m, n = cost.shape
        result = sinkhorn(cost, uniform_marginal(m), uniform_marginal(n), SinkhornConfig(lam=0.1))
        values = result.coupling.values
        assert result._support is not None
        assert ((cost < 0) & (values == 0)).any()
        assert not np.signbit(values).any()
        assert result.transport_cost.hex() == transport_cost(result.coupling, cost).hex()

    def test_marginals_copied(self):
        # The plan is the solve's own; the marginals are the caller's.
        cost = clustered_cost(3.0)
        mu, nu = uniform_marginal(cost.shape[0]), uniform_marginal(cost.shape[1])
        coupling = sinkhorn(cost, mu, nu).coupling
        assert mu.flags.writeable and nu.flags.writeable
        mu[0] = nu[0] = 0.5
        assert coupling.row_marginal[0] == coupling.col_marginal[0] == 1.0 / 400

    def test_constructor_copies(self):
        values = np.full((2, 2), 0.25)
        coupling = Coupling(values=values, row_marginal=np.full(2, 0.5), col_marginal=np.full(2, 0.5))
        assert values.flags.writeable
        values[0, 0] = 7.0
        assert coupling.values[0, 0] == 0.25

    @pytest.mark.parametrize(
        "values",
        [
            [[np.nan, 0.5], [0.25, 0.25]],
            [[0.6, -0.1], [0.3, 0.2]],
            [[0.25, 0.25], [0.25, 0.25 + 2 * MASS_TOLERANCE]],
        ],
        ids=["nan", "negative", "mass"],
    )
    def test_adoption_checks(self, values):
        marginal = np.full(2, 0.5)
        with pytest.raises(NonFiniteValue):
            Coupling(np.array(values), marginal, marginal)
        with pytest.raises(NonFiniteValue):
            _adopt(Coupling, values=np.array(values), row_marginal=marginal, col_marginal=marginal)
        plan = np.full((2, 2), 0.25)
        adopted = _adopt(Coupling, values=plan, row_marginal=marginal, col_marginal=marginal)
        assert adopted.values is plan and not plan.flags.writeable


def strided(cost):
    """``cost`` as a view that skips every other column of its buffer."""
    wide = np.zeros((cost.shape[0], 2 * cost.shape[1]))
    wide[:, ::2] = cost
    return wide[:, ::2]


class TestCostLayout:
    # A solve's results do not depend on its cost's memory layout: the
    # rule's ``work`` is in C order whatever the cost's, and the dense
    # matvecs sum in its memory order.
    LAYOUTS = {
        "C": np.copy,
        "F": np.asfortranarray,
        "transposed-copy": lambda cost: cost.T.copy().T,
        "strided": strided,
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("lam, sparse", [(0.1, True), (1e4, False)], ids=["sparse", "dense"])
    def test_solve_matches_c_order(self, lam, sparse, layout):
        cost = clustered_cost(3.0)
        m, n = cost.shape
        mu, nu, config = uniform_marginal(m), uniform_marginal(n), SinkhornConfig(lam=lam)
        reference = sinkhorn(cost, mu, nu, config)
        laid_out = self.LAYOUTS[layout](cost)
        assert np.array_equal(laid_out, cost) and (layout == "C") == laid_out.flags.c_contiguous
        result = sinkhorn(laid_out, mu, nu, config)
        assert (result._support is not None) == sparse
        assert result.coupling.values.tobytes() == reference.coupling.values.tobytes()
        assert result.transport_cost.hex() == reference.transport_cost.hex()
        assert result.iterations == reference.iterations
        assert laid_out.tobytes() == cost.tobytes()


class TestBruteforce:
    def test_single(self):
        assert exact_ot_bruteforce(np.array([[5.0]])) == (5.0, (0,))

    def test_free_identity(self):
        value, perm = exact_ot_bruteforce(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert value == 0.0 and perm == (0, 1)

    def test_value_below_average_permutation(self, rng):
        cost = rng.uniform(size=(5, 5))
        value, perm = exact_ot_bruteforce(cost)
        rows = np.arange(5)
        all_costs = [
            cost[rows, p].sum() / 5 for p in itertools.permutations(range(5))
        ]
        assert value <= np.mean(all_costs)
        assert value == pytest.approx(min(all_costs), abs=0)
        assert value == pytest.approx(cost[rows, perm].sum() / 5, abs=0)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            exact_ot_bruteforce(np.zeros((9, 9)))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            exact_ot_bruteforce(np.zeros((3, 4)))

    @pytest.mark.parametrize("cost", [np.zeros((0, 0)), [[np.nan]], [[0.0, 1.0], [np.inf, 0.0]]])
    def test_empty_or_non_finite_cost(self, cost):
        with pytest.raises(DimensionMismatch):
            exact_ot_bruteforce(cost)
