import itertools

import numpy as np
import pytest

from otce import (
    SinkhornConfig,
    exact_ot_bruteforce,
    sinkhorn,
    squared_euclidean_cost,
    transport_cost,
    uniform_marginal,
)
from otce import ot
from otce.errors import DimensionMismatch, NumericalOverflow, TooLarge

from conftest import clustered_pair


def _lse(a, axis):
    shift = a.max(axis=axis, keepdims=True)
    return (np.log(np.exp(a - shift).sum(axis=axis, keepdims=True)) + shift).squeeze(axis)


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

    def test_log_and_scaling_agree(self, rng):
        cost = rng.uniform(size=(5, 8))
        log_plan = sinkhorn(
            cost, uniform_marginal(5), uniform_marginal(8),
            SinkhornConfig(lam=0.3, log_domain=True),
        ).coupling.values
        scale_plan = sinkhorn(
            cost, uniform_marginal(5), uniform_marginal(8),
            SinkhornConfig(lam=0.3, log_domain=False),
        ).coupling.values
        assert np.abs(log_plan - scale_plan).max() < 1e-8

    def test_scaling_overflow_raises_and_log_survives(self):
        # second source point far from every target: its kernel row
        # underflows to zero and plain scaling divides by it
        cost = np.array([[0.0, 1.0], [1e4, 1e4]])
        mu = uniform_marginal(2)
        with pytest.raises(NumericalOverflow):
            sinkhorn(cost, mu, mu, SinkhornConfig(lam=1e-3, log_domain=False))
        result = sinkhorn(cost, mu, mu, SinkhornConfig(lam=1e-3, log_domain=True))
        assert np.isfinite(result.transport_cost)
        assert result.coupling.marginal_violation() <= 1e-9 or not result.converged

    @pytest.mark.parametrize("kind, seed", [
        ("uniform", 2), ("uniform", 3), ("squared", 0), ("squared", 1),
    ])
    def test_default_matches_log_sum_exp_across_absorptions(self, absorptions, kind, seed):
        # at lam = 1e-3 the potentials move by far more than the absorption
        # threshold within 300 iterations
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            cost = rng.uniform(size=(6, 6))
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

    def test_scaling_mode_never_absorbs(self, absorptions, rng):
        cost = rng.uniform(size=(5, 8))
        sinkhorn(
            cost, uniform_marginal(5), uniform_marginal(8),
            SinkhornConfig(lam=0.3, log_domain=False),
        )
        assert absorptions == []

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
        for log_domain in (True, False):
            config = SinkhornConfig(log_domain=log_domain)
            with pytest.raises(DimensionMismatch):
                sinkhorn(cost, np.array([np.nan, 0.5]), uniform_marginal(2), config)
            with pytest.raises(DimensionMismatch):
                sinkhorn(cost, uniform_marginal(2), np.array([0.5, np.nan]), config)

    def test_non_finite_cost_rejected(self):
        cost = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            sinkhorn(cost, uniform_marginal(2), uniform_marginal(2))

    def test_config_validation(self):
        for lam in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                SinkhornConfig(lam=lam)
        with pytest.raises(ValueError):
            SinkhornConfig(max_iterations=0)
        for tolerance in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                SinkhornConfig(marginal_tolerance=tolerance)


class TestKernelRebuild:
    # An absorption rebuilds the kernel by a dense exp masked afterwards
    # or by a where=-masked exp, chosen by the share of entries above the
    # floor; both must give the same bytes.
    @pytest.mark.parametrize(
        "shape, lam, dense",
        [((100, 98), 0.03, True), ((1000, 1000), 0.0025, False)],
        ids=["class-pair", "score-f"],
    )
    def test_forms_give_identical_bytes(self, monkeypatch, shape, lam, dense):
        m, n = shape
        rng = np.random.default_rng(3)
        cost = squared_euclidean_cost(rng.normal(size=(m, 8)), rng.normal(size=(n, 8)))
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), lam, absorb=True)
        rule.step()  # the log-sum-exp start absorbs F and G and builds the kernel
        floor = ot._floor(rule.log_mu, rule.log_nu)
        above = rule.kernel + rule.F[:, None] + rule.G[None, :] > floor
        assert (above.mean() > ot._DENSE_SHARE) == dense
        built = []
        for share in (0.0, 1.0):  # forces the dense form, then the masked one
            monkeypatch.setattr(ot, "_DENSE_SHARE", share)
            out = np.empty_like(rule.work)
            rule._build(rule.F, rule.G, out)
            built.append(out.tobytes())
        assert built == [rule.work.tobytes()] * 2


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
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), 0.1, absorb=True)
        rule.step()
        assert np.count_nonzero(rule.work) <= 0.03 * rule.work.size
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
        # The kernel's nonzeros grow from 1043 to 1187 of 160 000 over the
        # rebuilds, so this share holds the pattern for the first ones
        # only, and a later rebuild must drop it.
        cost = clustered_cost(3.0)
        dense = self.solve(monkeypatch, cost, 0.0)
        kernel_forms.clear()
        switching = self.solve(monkeypatch, cost, 1100 / 160_000)
        assert kernel_forms[0] == "sparse" and kernel_forms[-1] == "dense"
        self.assert_agree(dense, switching)

    def test_batched_problems_stay_dense(self, kernel_forms):
        # Each block is 1/20 nonzero, but the stacked matvecs are dense, so
        # a class-pair rebuild holds no pattern.
        cost = clustered_cost(3.0)
        blocks = [cost[:200, :200], cost[200:, 200:]]
        ot.batched_sinkhorn(blocks, SinkhornConfig(lam=0.1, max_iterations=20))
        assert kernel_forms and set(kernel_forms) == {"dense"}

    def test_column_products_bit_identical(self):
        # Each column sum adds the same products in the same row order.
        cost = clustered_cost(3.0)
        m, n = cost.shape
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), 0.1, absorb=True)
        for _ in range(50):
            rule.step()
        assert rule.pattern is not None
        dense = np.einsum(rule._KTU, rule.work, rule.u)
        assert rule._matvec(rule.u, 1).tobytes() == dense.tobytes()
        rows = rule._matvec(rule.v, 0)
        assert np.abs(rows - np.einsum(rule._KV, rule.work, rule.v)).max() <= 1e-15 * rows.max()


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
        uniform = np.log(uniform_marginal(1000))
        assert ot._floor(uniform, uniform) == pytest.approx(-130.55, abs=0.01)
        small = np.log(uniform_marginal(100))
        assert ot._floor(small, small) == pytest.approx(-125.95, abs=0.01)
        # A tiny marginal entry would put the floor below the clamp.
        tiny = np.log(np.array([1e-300, 1.0]))
        assert ot._floor(tiny, np.log(uniform_marginal(3))) == ot._EXP_CLAMP

    def test_plain_scaling_kernel_is_not_truncated(self):
        # exp(-200) lies below a 3 x 3 floor (about e^-119) and exp(-720)
        # below the clamp; plain scaling keeps both, and its plan carries them.
        cost = np.array([[0.0, 20.0, 72.0], [20.0, 0.0, 72.0], [72.0, 72.0, 0.0]])
        mu = uniform_marginal(3)
        rule = ot._Rule.on(cost, mu, mu, 0.1, absorb=False)
        assert rule.work.tobytes() == np.exp(cost * (-1.0 / 0.1)).tobytes()
        floor = np.exp(ot._floor(rule.log_mu, rule.log_nu))
        assert 0.0 < rule.work.min() and (rule.work < floor).sum() == 6
        plan = sinkhorn(cost, mu, mu, SinkhornConfig(log_domain=False)).coupling.values
        assert (plan > 0).all() and plan[0, 1] < floor

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
        rule = ot._Rule.on(cost, uniform_marginal(m), uniform_marginal(n), 0.1, absorb=True)
        for _ in range(200):
            rule.step()
        exponent = rule.kernel + rule.F[:, None] + rule.G[None, :]
        # The floor has dropped entries the clamp would keep, and the
        # scalings are near the edge of their range.
        assert ((rule.work == 0) & (exponent > ot._EXP_CLAMP)).any()
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
