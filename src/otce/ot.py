"""Ground costs, the entropic Sinkhorn solver, and a brute-force oracle.

The solver minimizes ``sum(c * pi) - lam * H(pi)`` with
``H(pi) = -sum(pi * log(pi))`` over couplings with prescribed marginals.
It iterates the scaling updates ``u = mu / (K v)``, ``v = nu / (K^T u)``
on a kernel ``K = exp(-c/lam + F + G)``. By default (``log_domain``) the
iteration is stabilized: it starts with one log-sum-exp update pair, and
whenever a scaling leaves ``[e^-30, e^30]`` or is not finite, that
half-update is redone in log-sum-exp form and absorbed into the log
potentials F and G, and the kernel is rebuilt (Schmitzer 2019,
"Stabilized sparse scaling algorithms for entropy regularized
transport"). Plain scaling (``log_domain=False``) never absorbs, keeps
F = G = 0, and raises :class:`NumericalOverflow` when ``exp(-c/lam)``
degenerates; it is kept for cross-checking. A rebuilt kernel is exactly
zero below a floor (:func:`_floor`) at which the dropped entries change
no kept scaling update by more than 2^-53 e^-20 of itself, so in
practice values are unchanged to the bit; when few entries are left
nonzero, the iteration steps over those alone (Schmitzer's sparse
truncated kernel).

The rule is written once, here: its kernel, its row and column
half-updates in scaling and in log-sum-exp form, the plan, the cheap
stopping estimate, and the reverse of each step. One driver,
:func:`_stops`, steps it until each problem stops: :func:`sinkhorn`'s
one, or :func:`batched_sinkhorn`'s many small ones (jc-otce's class
pairs) as padded stacks of problems of similar shape, with the same rule
applied per problem wherever problems differ. :func:`unrolled_sinkhorn`
replays exactly K of the same steps for the differentiable path in
:mod:`otce.gradient` and walks them backwards, every half-step, kept or
redone, the start's included, as matvecs on its epoch's kernel (the
kernel between two absorptions, rebuilt once per epoch), with no exp
per step.

The solvers and the unrolled reverse use no BLAS call: every product is
an einsum, ufunc or sequential ``np.bincount`` loop and every reduction
runs in a fixed sequential order, so for a given cost the results are
bit-stable across runs and thread counts. The BLAS product in
:func:`squared_euclidean_cost` is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .data import Coupling
from .errors import DimensionMismatch, NumericalOverflow, TooLarge

__all__ = [
    "SinkhornConfig",
    "SinkhornResult",
    "squared_euclidean_cost",
    "sinkhorn",
    "transport_cost",
    "exact_ot_bruteforce",
    "uniform_marginal",
]

# Log-sum-exp arguments below this are clamped before exp(), and no
# rebuilt kernel keeps an entry below exp(-700) ~ 1e-304: the clamp keeps
# numpy's exp off its scalar fallback path for subnormal results.
_EXP_CLAMP = -700.0

# A kernel rebuild with more than this share of its entries above the
# floor runs exp densely and masks after. At 100x100 the dense form took
# half the time of the masked one at a 20% share and broke even near 7%;
# at 1000x1000 with 2% above it took ~1.2x as long.
_DENSE_SHARE = 0.07

# A rebuilt kernel with at most this share of nonzeros runs its matvecs
# over the nonzeros alone. A sparse matvec pair broke even with the dense
# one near 9% at 1000x1000 and near 7-8% at 200x200 to 700x700.
_SPARSE_SHARE = 0.07


@dataclass(frozen=True)
class SinkhornConfig:
    """Entropic-solver knobs.

    lam: entropic regularization weight, finite and > 0. Default 0.1.
    max_iterations: hard cap on full update pairs. Default 1000.
    marginal_tolerance: stop once the L-infinity marginal violation of
        the current plan is at or below this; finite and > 0. Default 1e-9.
    log_domain: stabilize the scaling updates by absorbing them into
        log-domain potentials (default), instead of plain scaling, which
        raises NumericalOverflow when exp(-cost/lam) degenerates.
    """

    lam: float = 0.1
    max_iterations: int = 1000
    marginal_tolerance: float = 1e-9
    log_domain: bool = True

    def __post_init__(self) -> None:
        # Infinite lam gives the independent coupling, scored as converged.
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be finite and > 0, got {self.lam!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        # An infinite tolerance would stop the first step, flagged converged.
        if not 0 < self.marginal_tolerance < np.inf:
            raise ValueError(
                f"marginal_tolerance must be finite and > 0, got {self.marginal_tolerance!r}"
            )


@dataclass(frozen=True)
class SinkhornResult:
    """Solve outcome: the plan plus honest convergence diagnostics.

    ``transport_cost`` is the unregularized objective ``<cost, plan>``.
    ``converged`` is set only after verifying the true L-infinity
    marginal violation of the returned plan against the tolerance.
    """

    coupling: Coupling
    iterations: int
    final_marginal_error: float
    converged: bool
    transport_cost: float


def uniform_marginal(size: int) -> np.ndarray:
    """The (1/size, ..., 1/size) probability vector."""
    return np.full(size, 1.0 / size)


def squared_euclidean_cost(xs: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, an (m, n) cost matrix.

    cost[i, j] = || xs[i] - xt[j] ||^2, clipped at zero to absorb the
    tiny negatives the expanded form can produce.
    """
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if xs.ndim != 2 or xt.ndim != 2:
        raise DimensionMismatch("inputs must be 2-D (samples, features)")
    if xs.shape[1] != xt.shape[1]:
        raise DimensionMismatch(
            f"feature dimensions differ: {xs.shape[1]} vs {xt.shape[1]}"
        )
    sq_s = np.einsum("ij,ij->i", xs, xs)
    sq_t = np.einsum("ij,ij->i", xt, xt)
    cost = sq_s[:, None] + sq_t[None, :] - 2.0 * (xs @ xt.T)
    np.maximum(cost, 0.0, out=cost)
    return cost


def transport_cost(coupling: Coupling | np.ndarray, cost: np.ndarray) -> float:
    """Unregularized transport objective ``sum(cost * plan)``."""
    plan = coupling.values if isinstance(coupling, Coupling) else np.asarray(coupling)
    cost = np.asarray(cost, dtype=np.float64)
    if plan.shape != cost.shape:
        raise DimensionMismatch(f"plan {plan.shape} vs cost {cost.shape}")
    return float((plan * cost).sum())


def _check_marginals(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> None:
    m, n = cost.shape
    if mu.shape != (m,) or nu.shape != (n,):
        raise DimensionMismatch(
            f"marginals {mu.shape}/{nu.shape} do not fit cost {cost.shape}"
        )
    for name, vec in (("mu", mu), ("nu", nu)):
        # NaN fails every comparison below, so finiteness is checked first.
        if not np.isfinite(vec).all():
            raise DimensionMismatch(f"{name} must be finite")
        if abs(float(vec.sum()) - 1.0) > 1e-12:
            raise DimensionMismatch(f"{name} must sum to 1 within 1e-12")
        if (vec <= 0).any():
            raise DimensionMismatch(f"{name} must be strictly positive")
    if not np.isfinite(cost).all():
        raise DimensionMismatch("cost matrix must be finite")


# -- the update rule -------------------------------------------------------
#
# The Sinkhorn iteration alternates a row potential f and a column
# potential g, starting from g = 0. _Rule computes each half-update as a
# kernel matvec, and in log-sum-exp form to start and to absorb. The
# solver and the unrolled gradient both drive _Rule.step, so their ops
# match bit for bit. The reverse has one form (_Taped.pullback): a
# half-step's softmax is its epoch's kernel times u v^T, over mu or nu.
# A redone half-step opens its epoch with u = v = 1, so the kernel its
# absorption builds is its softmax, and it is pulled back by the same
# matvecs as a kept one.

# Scalings outside [e^-_ABSORB, e^_ABSORB] are absorbed into the log
# potentials before the kernel products they scale lose precision.
_ABSORB = 30.0
_SCALING_LO = float(np.exp(-_ABSORB))
_SCALING_HI = float(np.exp(_ABSORB))


def _floor(log_mu: np.ndarray, log_nu: np.ndarray) -> float:
    """ln tau, the truncation floor of a rebuilt m x n kernel on marginals
    exp(log_mu) and exp(log_nu), never below _EXP_CLAMP.

    A kept row half has (K v)_i = mu_i / u_i >= mu_i e^-_ABSORB and every
    v_j <= e^_ABSORB, so the kernel entries below tau change it by at most
    n tau e^(2 _ABSORB) / mu_i of itself; the column half likewise, with
    m and nu. This tau holds that below 2^-53 e^-20: the unit roundoff,
    with a margin of e^20.
    """
    spread = max(math.log(log_nu.size) - log_mu.min(), math.log(log_mu.size) - log_nu.min())
    return max(_EXP_CLAMP, -(2.0 * _ABSORB + 53.0 * math.log(2.0) + 20.0 + float(spread)))


def _in_range(scaling: np.ndarray, axis=None):
    """Whether the scalings lie in [e^-30, e^30]: all of them, or those
    of each problem along ``axis``."""
    # NaN fails both comparisons. A whole-array test that fails the lower
    # bound is decided without the second reduction.
    inside = _SCALING_LO <= scaling.min(axis=axis)
    if axis is None and not inside:
        return False
    return inside & (scaling.max(axis=axis) <= _SCALING_HI)


class _Rule:
    """Scaling updates u = mu / (K v), v = nu / (K^T u) on the kernel
    K = exp(-cost/lam + F + G), held in ``work``.

    F and G are absorbed log potentials; the effective potentials are
    f = F + log u and g = G + log v. With ``absorb`` (log-domain mode) the
    first iteration is a log-sum-exp pair, after which K is built. A
    fresh scaling that is not finite or leaves [e^-30, e^30] is dropped:
    its half-update is redone in log-sum-exp form from the effective
    potentials (with ``work`` as its workspace), folded into F and G, u and v
    reset to 1 and K rebuilt, exactly zero below a floor (see
    :func:`_floor`). Every half-update is thus the exact Sinkhorn step,
    to the bit in practice. Without ``absorb`` (plain scaling) F = G = 0, the
    kernel is unclamped, so honest underflow to zero shows up in the
    finite check of each half-update, which raises NumericalOverflow.

    ``work`` is K's dense store, which the plan, the log-sum-exp form and
    the reverse read. The matvecs are einsum loops over it, or, while an
    absorption has left K sparse, ``np.bincount`` sums over K's nonzeros
    (``pattern``: their rows, columns and values, in row-major order).
    Both are sequential, not BLAS calls, so their bits do not depend on
    the BLAS thread count. The sparse column product adds the same terms
    in the same order as the einsum, so it is bit-identical; the sparse
    row product differs from it by rounding.
    """

    def __init__(
        self, kernel, work, mu, nu, lam: float, absorb: bool, F, G, u, v, sparse=True
    ):
        """The rule on prepared arrays: ``kernel`` is -cost/lam, ``work``
        holds K, F and G are the absorbed log potentials and u, v the
        scalings. With ``sparse``, an absorption that leaves at most
        _SPARSE_SHARE of K nonzero holds K's pattern for the matvecs."""
        self.lam = lam
        self.absorb = absorb
        self.sparse = sparse
        self.pattern = None
        self.absorptions = 0
        self.kernel = kernel
        self.work = work
        self.mu = mu
        self.nu = nu
        self.log_mu = np.log(mu)
        self.log_nu = np.log(nu)
        self.F, self.G, self.u, self.v = F, G, u, v

    @classmethod
    def on(cls, cost: np.ndarray, mu: np.ndarray, nu: np.ndarray, lam: float, absorb: bool):
        """The rule at the start of a solve on ``cost``: F = G = 0, u = v = 1."""
        kernel = cost * (-1.0 / lam)
        work = np.empty_like(kernel)
        if not absorb:
            np.exp(kernel, out=work)
        m, n = kernel.shape
        return cls(
            kernel, work, mu, nu, lam, absorb, np.zeros(m), np.zeros(n), np.ones(m), np.ones(n)
        )

    # Matvec subscripts; _Batch prefixes them with its problem axis.
    _KV = "ij,j->i"
    _KTU = "ij,i->j"

    def step(self) -> None:
        """One row and one column half-update."""
        if self.absorb and not self.absorptions:
            self._start()
            return
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._take_u(self.mu / self._matvec(self.v, 0))
            self.before = (self.G, self.v)
            self._take_v(self.nu / self._matvec(self.u, 1))

    def _matvec(self, scaling: np.ndarray, axis: int) -> np.ndarray:
        """K v (axis 0) or K^T u (axis 1): an einsum over the dense K, or
        with a held pattern a sequential bincount over K's nonzeros."""
        if self.pattern is None:
            return np.einsum(self._KTU if axis else self._KV, self.work, scaling)
        rows, cols, data = self.pattern
        into, read = (cols, rows) if axis else (rows, cols)
        return np.bincount(into, weights=data * scaling[read], minlength=self.work.shape[axis])

    def _start(self) -> None:
        # Nothing is absorbed yet, so G is the starting g = 0.
        self.before = (self.G, self.v)
        f = self.row(self.G)
        self._absorb(f, self.col(f))

    def _take_u(self, u: np.ndarray) -> None:
        if self._keep(u):
            self.u = u
        else:
            self._redo_row()

    def _take_v(self, v: np.ndarray) -> None:
        if self._keep(v):
            self.v = v
        else:
            self._redo_col()

    def _redo_row(self) -> None:
        """The row half-update in log-sum-exp form, absorbed."""
        g = self.G + np.log(self.v)
        self._absorb(self.row(g), g)

    def _redo_col(self) -> None:
        """The column half-update in log-sum-exp form, absorbed."""
        f = self.F + np.log(self.u)
        self._absorb(f, self.col(f))

    def estimate(self):
        """Cheap column violation of the plan before the last column update.

        That plan has colsum_j = nu_j * v_j / v_next_j, or in log form
        nu_j * exp(g_j - g_next_j), so its violation is free. The maximum
        is taken over the last axis: one value per problem.
        """
        G, v = self.before
        if G is self.G:
            return np.abs(self.nu * (v / self.v - 1.0)).max(axis=-1)
        return np.abs(self.nu * np.expm1(G + np.log(v) - self.G)).max(axis=-1)

    def near(self, tol: float):
        """The problems whose cheap estimate meets ``tol``: this one or none,
        tested in Python, as the driver asks after every step."""
        return (0,) if self.estimate() <= tol else ()

    def problem(self, k: int) -> _Rule:
        """Problem k of the rule; a one-problem rule is its own problem 0."""
        return self

    def plan(self) -> np.ndarray:
        plan = self.work * self.u[:, None]
        plan *= self.v[None, :]
        return plan

    def _keep(self, scaling: np.ndarray) -> bool:
        if _in_range(scaling):
            return True
        if self.absorb:
            return False
        if not np.isfinite(scaling).all():
            raise NumericalOverflow(
                "scaling-mode Sinkhorn under/overflowed "
                f"(lam={self.lam!r}); retry with log_domain=True"
            )
        return True

    def _absorb(self, f: np.ndarray, g: np.ndarray) -> None:
        """Make f, g the absorbed potentials, rebuild K in place and pick
        the form of its matvecs."""
        self.F, self.G = f, g
        self.u = np.ones_like(f)
        self.v = np.ones_like(g)
        self.absorptions += 1
        above, count = self._build(f, g, self.work)
        self.pattern = None
        if self.sparse and count <= _SPARSE_SHARE * above.size:
            # The entries above the floor are exactly K's nonzeros.
            index = np.flatnonzero(above)
            rows, cols = np.divmod(index, above.shape[1])
            self.pattern = rows, cols, self.work.take(index)

    def _build(self, f: np.ndarray, g: np.ndarray, out: np.ndarray):
        """K = exp(-cost/lam + f + g) into ``out``, zero below the rule's
        floor (:func:`_floor`).

        Returns the mask of the entries above the floor and their count.
        """
        np.add(self.kernel, f[:, None], out=out)
        out += g[None, :]
        # Zeros below the floor, not exp(floor): exact zeros are what the
        # sparse matvecs skip, and an entry near exp(-700) times a small
        # scaling would be subnormal, which is slow. Both forms give the
        # same bits; the where=-masked exp costs per run of the mask, so
        # it is the faster one only while few entries lie above.
        floor = _floor(self.log_mu, self.log_nu)
        above = out > floor
        count = np.count_nonzero(above)
        if count > _DENSE_SHARE * out.size:
            np.maximum(out, floor, out=out)
            np.exp(out, out=out)
            out *= above
        else:
            np.exp(out, out=out, where=above)
            np.maximum(out, 0.0, out=out)
        return above, count

    # -- log-sum-exp form: the start and absorptions ----------------------

    def row(self, g: np.ndarray) -> np.ndarray:
        """f = log_mu - LSE_j(-cost/lam + g), max-shifted."""
        work = self.work
        np.add(self.kernel, g[None, :], out=work)
        shift = work.max(axis=1)
        work -= shift[:, None]
        np.maximum(work, _EXP_CLAMP, out=work)
        np.exp(work, out=work)
        return self.log_mu - (np.log(work.sum(axis=1)) + shift)

    def col(self, f: np.ndarray) -> np.ndarray:
        """g = log_nu - LSE_i(-cost/lam + f), max-shifted."""
        work = self.work
        np.add(self.kernel, f[:, None], out=work)
        shift = work.max(axis=0)
        work -= shift[None, :]
        np.maximum(work, _EXP_CLAMP, out=work)
        np.exp(work, out=work)
        return self.log_nu - (np.log(work.sum(axis=0)) + shift)

    def plan_vjp(self, plan, dplan):
        # plan = exp(kernel + f + g): one product serves all three adjoints.
        weighted = dplan * plan
        return weighted.sum(axis=1), weighted.sum(axis=0), weighted

    def cost_vjp(self, dkernel: np.ndarray) -> np.ndarray:
        return dkernel * (-1.0 / self.lam)


class _Batch(_Rule):
    """Independent problems stacked on a leading axis and stepped together.

    Problem k fills the top-left m_k x n_k corner of slice k of the
    padded stacks; padded entries of the stacked kernel are zero and
    padded scalings are held at 1, so the stacked einsum matvecs give
    each problem its own products. Whatever differs between problems
    runs per problem, through _Rule's own methods on a 2-D view of it
    (:meth:`problem`): the log-sum-exp start, the absorption of a scaling
    that leaves range, the log-form estimate after an absorption, and the
    plan.
    """

    _KV = "bij,bj->bi"
    _KTU = "bij,bi->bj"

    def __init__(self, costs: list[np.ndarray], lam: float, absorb: bool):
        self.shapes = [cost.shape for cost in costs]
        # Each problem's -cost/lam, contiguous: only per-problem steps read
        # it. One buffer holds them all, so it is freed in one piece.
        sizes = [cost.size for cost in costs]
        flat = np.empty(sum(sizes))
        self.kernels = [
            np.multiply(cost, -1.0 / lam, out=part.reshape(cost.shape))
            for cost, part in zip(costs, np.split(flat, np.cumsum(sizes)[:-1]))
        ]
        count = len(costs)
        rows, cols = (max(extent) for extent in zip(*self.shapes))
        mu = np.zeros((count, rows))
        nu = np.zeros((count, cols))
        for k, (m, n) in enumerate(self.shapes):
            mu[k, :m] = uniform_marginal(m)
            nu[k, :n] = uniform_marginal(n)
        # The stacks have no kernel of their own, and the log marginals
        # are -inf in the padding, which no stacked step reads.
        with np.errstate(divide="ignore"):
            super().__init__(
                None, np.zeros((count, rows, cols)), mu, nu, lam, absorb,
                np.zeros_like(mu), np.zeros_like(nu), np.ones_like(mu), np.ones_like(nu),
            )
        if not absorb:
            for k, (m, n) in enumerate(self.shapes):
                np.exp(self.kernels[k], out=self.work[k, :m, :n])
        self.scratch = np.empty(rows * cols)
        self.pad_rows = mu == 0.0
        self.pad_cols = nu == 0.0

    def problem(self, k: int) -> _Rule:
        """Problem k as a 2-D _Rule on its own kernel and views into the stacks.

        The views share memory with the stacks except where a method
        assigns a new array (an absorption); :meth:`_redo` copies those back.
        """
        m, n = self.shapes[k]
        # The stacked matvecs are dense, so its rebuilds hold no pattern.
        return _Rule(
            self.kernels[k], self.work[k, :m, :n], self.mu[k, :m], self.nu[k, :n],
            self.lam, self.absorb, self.F[k, :m], self.G[k, :n], self.u[k, :m], self.v[k, :n],
            sparse=False,
        )

    def _redo(self, k: int, half) -> None:
        """Run ``half``, a log-sum-exp half-step that absorbs, on problem k.

        It works in contiguous scratch rather than in the strided view of
        the stack, where the kernel rebuild's masked exp takes about twice
        as long, and the rebuilt kernel is then copied into the stack.
        """
        rule = self.problem(k)
        m, n = self.shapes[k]
        stacked, rule.work = rule.work, self.scratch[: m * n].reshape(m, n)
        half(rule)
        stacked[...] = rule.work
        self.F[k, :m], self.u[k, :m] = rule.F, rule.u
        self.G[k, :n], self.v[k, :n] = rule.G, rule.v

    def step(self) -> None:
        # (k, (G, v) before the column update) of each problem whose
        # column half-step was redone in log-sum-exp form this step.
        self.redone = []
        _Rule.step(self)

    def _start(self) -> None:
        self.absorptions = 1
        self.before = (self.G, self.v)
        for k, (_, n) in enumerate(self.shapes):
            self.redone.append((k, (np.zeros(n), np.ones(n))))
            self._redo(k, _Rule._start)

    def _rejects(self, scaling: np.ndarray, pad: np.ndarray):
        """Problems whose fresh scaling fails the keep test."""
        # Padded entries are 0/0; at 1 they pass every test.
        scaling[pad] = 1.0
        # One test over the whole stack first; in scaling mode it raises
        # NumericalOverflow or passes, so only log-domain problems return.
        if _Rule._keep(self, scaling):
            return ()
        return np.flatnonzero(~_in_range(scaling, axis=-1))

    def _take_u(self, u: np.ndarray) -> None:
        self.u = u
        for k in self._rejects(u, self.pad_rows):
            self._redo(k, _Rule._redo_row)

    def _take_v(self, v: np.ndarray) -> None:
        self.v = v
        G_before, v_before = self.before
        for k in self._rejects(v, self.pad_cols):
            n = self.shapes[k][1]
            self.redone.append((k, (G_before[k, :n].copy(), v_before[k, :n])))
            self._redo(k, _Rule._redo_col)

    def near(self, tol: float) -> np.ndarray:
        estimates = _Rule.estimate(self)
        for k, before in self.redone:
            rule = self.problem(k)
            rule.before = before
            estimates[k] = rule.estimate()
        return np.flatnonzero(estimates <= tol)

    def retain(self, alive: np.ndarray) -> None:
        """Drop the problems not marked alive from the stacks."""
        for name in ("work", "pad_rows", "pad_cols", "mu", "log_mu", "F", "u",
                     "nu", "log_nu", "G", "v"):
            setattr(self, name, getattr(self, name)[alive])
        self.kernels = [kernel for kernel, keep in zip(self.kernels, alive) if keep]
        self.shapes = [kernel.shape for kernel in self.kernels]


def _stops(rule: _Rule, problems, config: SinkhornConfig):
    """Step ``rule`` until each of its problems stops, yielding each as it does.

    ``problems`` names the problem in each slot. A problem stops once the
    true marginal error of its plan, checked when its cheap estimate
    meets the tolerance, meets it too, or at the iteration cap; it is
    yielded as ``(name, plan, iterations, error)`` and dropped from the rule.
    """
    tol = config.marginal_tolerance
    active = np.asarray(problems)
    for iterations in range(1, config.max_iterations + 1):
        rule.step()
        last = iterations == config.max_iterations
        candidates = range(active.size) if last else rule.near(tol)
        if not len(candidates):
            continue
        alive = np.ones(active.size, dtype=bool)
        for k in candidates:
            problem = rule.problem(k)
            plan = problem.plan()
            row = np.abs(plan.sum(axis=1) - problem.mu).max()
            error = float(max(row, np.abs(plan.sum(axis=0) - problem.nu).max()))
            if error <= tol or last:
                yield active[k], plan, iterations, error
                alive[k] = False
        if not alive.all():
            active = active[alive]
            if not active.size:
                return
            rule.retain(alive)


def sinkhorn(
    cost: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    config: SinkhornConfig | None = None,
) -> SinkhornResult:
    """Solve entropic OT between histograms ``mu`` and ``nu``.

    Non-convergence within the iteration budget is not an error: the
    result carries ``converged=False`` and the achieved marginal error.

    Raises:
        DimensionMismatch: shapes disagree, marginals are not finite, do
            not sum to 1 within 1e-12 or contain non-positive mass, or
            cost is not finite.
        NumericalOverflow: scaling mode only, when ``exp(-c/lam)``
            collapses; callers should retry with ``log_domain=True``.
    """
    config = config or SinkhornConfig()
    cost = np.asarray(cost, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if cost.ndim != 2:
        raise DimensionMismatch(f"cost must be 2-D, got ndim={cost.ndim}")
    _check_marginals(cost, mu, nu)

    # Held by the driver alone, the rule is freed before the result is
    # scored, which allocates plan-sized temporaries of its own.
    ((_, plan, iterations, error),) = _stops(
        _Rule.on(cost, mu, nu, config.lam, absorb=config.log_domain), [0], config
    )
    # The column update pins total mass to 1 up to float residue, so the
    # Coupling mass invariant holds without renormalizing (renormalizing
    # would break bit-equality with the unrolled gradient path).
    coupling = Coupling(values=plan, row_marginal=mu, col_marginal=nu)
    return SinkhornResult(
        coupling=coupling,
        iterations=iterations,
        final_marginal_error=error,
        converged=error <= config.marginal_tolerance,
        transport_cost=transport_cost(coupling, cost),
    )


class BatchResult(NamedTuple):
    """Per-problem outcomes of :func:`batched_sinkhorn`, one entry per cost."""

    transport_cost: np.ndarray
    iterations: np.ndarray
    final_marginal_error: np.ndarray
    converged: np.ndarray


def batched_sinkhorn(costs, config: SinkhornConfig) -> BatchResult:
    """Solve entropic OT on uniform marginals for each 2-D cost, in batches.

    Problems of similar shape are solved as one batch (see
    :func:`_batches`) in one run of :func:`sinkhorn`'s driver: the
    matvecs run on the batch's padded stack and everything else per
    problem (see :class:`_Batch`). Each problem stops when its own true
    marginal error meets the tolerance and is then dropped from its
    batch, so it takes the steps, absorptions and stopping iteration of
    :func:`sinkhorn` on its cost alone, and its values agree with that
    solve to rounding (the padded row matvec sums in another order).

    Raises:
        DimensionMismatch: a cost is not 2-D or not finite.
        NumericalOverflow: scaling mode only, as in :func:`sinkhorn`.
    """
    costs = [np.asarray(cost, dtype=np.float64) for cost in costs]
    for cost in costs:
        if cost.ndim != 2:
            raise DimensionMismatch(f"cost must be 2-D, got ndim={cost.ndim}")
        if not np.isfinite(cost).all():
            raise DimensionMismatch("cost matrix must be finite")
    count = len(costs)
    result = BatchResult(
        np.empty(count), np.empty(count, dtype=np.intp), np.empty(count), np.empty(count, dtype=bool)
    )
    for batch in _batches([cost.shape for cost in costs]):
        # Held by the driver alone, the stacks are freed before the next batch.
        stops = _stops(
            _Batch([costs[b] for b in batch], config.lam, absorb=config.log_domain), batch, config
        )
        for b, plan, iterations, error in stops:
            result.transport_cost[b] = transport_cost(plan, costs[b])
            result.iterations[b] = iterations
            result.final_marginal_error[b] = error
            result.converged[b] = error <= config.marginal_tolerance
    return result


# A batch is padded to its largest extent on each side. Holding each side
# within sqrt(2) of the batch's smallest keeps every problem at least
# half its padded slice, so a stack is at most twice its problems' volume.
_SPREAD = float(np.sqrt(2.0))


def _batches(shapes: list[tuple[int, int]]) -> list[list[int]]:
    """Problem indices split into batches of similar shape.

    Sorted by rows, the problems split into bands whose largest row
    count is within _SPREAD of the smallest; each band, sorted by
    columns, splits the same way on columns.
    """
    batches = []
    for band in _runs(sorted(range(len(shapes)), key=shapes.__getitem__), 0, shapes):
        batches += _runs(sorted(band, key=lambda k: shapes[k][1]), 1, shapes)
    return [sorted(batch) for batch in batches]


def _runs(order: list[int], axis: int, shapes) -> list[list[int]]:
    """Split ``order``, ascending in ``shapes[k][axis]``, into runs within _SPREAD."""
    runs: list[list[int]] = []
    for k in order:
        if runs and shapes[k][axis] <= _SPREAD * shapes[runs[-1][0]][axis]:
            runs[-1].append(k)
        else:
            runs.append([k])
    return runs


class _Taped(_Rule):
    """The rule, taping what the reverse of each half-step needs.

    ``tape`` holds one record (epoch, F, G, u, v) of the state after
    each half-step, 2K of them for K steps: a row half at each even
    index, a column half at each odd one. The epoch is the absorption
    count, so it names the kernel the record's F and G build; that
    kernel times u v^T, over mu or nu, is the half-step's softmax, kept
    or redone. The log-domain start's row half is taped as epoch 0 with
    F = f and G = 0 (a redone half-step whose kernel no state holds);
    its column half is the first absorbed state.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.tape = []

    def _state(self):
        return self.absorptions, self.F, self.G, self.u, self.v

    def _start(self) -> None:
        _Rule._start(self)
        # ``before`` still holds the starting g = 0 and v = 1.
        G, v = self.before
        self.tape += [(0, self.F, G, self.u, v), self._state()]

    def _take_u(self, u: np.ndarray) -> None:
        _Rule._take_u(self, u)
        self.tape.append(self._state())

    def _take_v(self, v: np.ndarray) -> None:
        _Rule._take_v(self, v)
        self.tape.append(self._state())

    def pullback(self, plan: np.ndarray, dplan: np.ndarray) -> np.ndarray:
        """d(loss)/d(cost) from d(loss)/d(plan), walking the taped steps back.

        A half-step's softmax is its epoch's kernel times u v^T, over mu
        (row half) or nu (column half), so its adjoints are one matvec on
        that kernel, and its term of dkernel is the kernel times a
        rank-one product. Those terms are collected per epoch and added
        once, when the walk leaves the epoch; each earlier epoch's kernel
        is rebuilt once, as its absorption built it (the last one is
        still in ``work``). No half-step runs an exp of its own.
        """
        m, n = self.kernel.shape
        tape = self.tape
        neg_mu, neg_nu = -self.mu, -self.nu
        kernel, held = self.work, tape[-1][0]
        # The rank-one factors of dkernel, column k for tape[k]; the held
        # epoch's terms are the columns from k + 1 up to ``end``.
        rows = np.empty((m, len(tape)))
        cols = np.empty((n, len(tape)))
        end = len(tape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            df, dg, dkernel = self.plan_vjp(plan, dplan)
            for k in range(len(tape) - 1, -1, -1):
                epoch, F, G, u, v = tape[k]
                if epoch != held:
                    dkernel += _rank_sum(rows[:, k + 1:end], cols[:, k + 1:end], kernel)
                    if kernel is self.work:
                        kernel = np.empty_like(kernel)
                    self._build(F, G, kernel)
                    held, end = epoch, k + 1
                if k % 2:
                    # soft = K u v^T / nu: dkernel gets K u (-v dg / nu)^T.
                    b = np.multiply(dg, v, out=cols[:, k])
                    b /= neg_nu
                    rows[:, k] = u
                    df += u * np.einsum(self._KV, kernel, b)
                else:
                    # soft = K u v^T / mu: dkernel gets K (-u df / mu) v^T.
                    a = np.multiply(df, u, out=rows[:, k])
                    a /= neg_mu
                    cols[:, k] = v
                    dg = v * np.einsum(self._KTU, kernel, a)
                    df = np.zeros(m)
            dkernel += _rank_sum(rows[:, :end], cols[:, :end], kernel)
            return self.cost_vjp(dkernel)


def _rank_sum(rows: np.ndarray, cols: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """kernel times the sum over t of the outer products rows[:, t] cols[:, t]^T."""
    return np.einsum("it,jt->ij", rows, cols) * kernel


def unrolled_sinkhorn(cost: np.ndarray, config: SinkhornConfig, iterations: int):
    """Exactly ``iterations`` update pairs on uniform marginals, and their reverse.

    The forward replays the steps of :func:`sinkhorn` with no early
    stopping (``config``'s iteration cap and tolerance do not apply), so
    the plan equals the solver's plan after that many iterations. Returns
    ``(plan, pullback)``: ``pullback(dplan)`` maps d(loss)/d(plan) to
    d(loss)/d(cost) by walking the same steps backwards, each as matvecs
    on the kernel of its epoch. Non-finite adjoints are left for the
    caller to detect.

    Raises:
        NumericalOverflow: scaling mode only, as in :func:`sinkhorn`.
    """
    m, n = cost.shape
    rule = _Taped.on(
        cost, uniform_marginal(m), uniform_marginal(n), config.lam, absorb=config.log_domain
    )
    for _ in range(iterations):
        rule.step()
    plan = rule.plan()
    # The closure holds the rule, which holds nothing of the closure's,
    # so both are freed by reference counting once the caller drops it.
    return plan, lambda dplan: rule.pullback(plan, dplan)


def exact_ot_bruteforce(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact OT value for a square cost with uniform marginals, n <= 8.

    With uniform marginals the unregularized optimum is attained at a
    permutation matrix, so full enumeration is exact:
    value = min over permutations of mean(cost[i, sigma(i)]).
    Returns the value and the first permutation (in lexicographic order)
    attaining it.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise DimensionMismatch(f"cost must be square, got {cost.shape}")
    n = cost.shape[0]
    if n > 8:
        raise TooLarge(f"brute-force oracle limited to n <= 8, got {n}")
    best = np.inf
    best_perm: tuple[int, ...] = tuple(range(n))
    rows = np.arange(n)
    for perm in permutations(range(n)):
        value = cost[rows, perm].sum()
        if value < best:
            best = value
            best_perm = perm
    return float(best / n), best_perm
