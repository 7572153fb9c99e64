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
degenerates; it is kept for cross-checking.

The rule is written once, here: its kernel, its row and column
half-updates in scaling and in log-sum-exp form, the plan, the cheap
stopping estimate, and the reverse of each step. :func:`sinkhorn` drives
it with early stopping; :func:`unrolled_sinkhorn` replays exactly K of
the same steps for the differentiable path in :mod:`otce.gradient` and
walks them backwards in log-sum-exp form.

The solver and the unrolled reverse use no BLAS call: every product is
an einsum or ufunc loop and every reduction runs in a fixed sequential
order, so for a given cost the results are bit-stable across runs and
thread counts. The BLAS product in :func:`squared_euclidean_cost` is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

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

# Arguments below this are clamped before exp(). exp(-700) ~ 1e-304 is
# already negligible against any retained mass, and the clamp keeps
# numpy's exp off its scalar fallback path for subnormal results.
_EXP_CLAMP = -700.0


@dataclass(frozen=True)
class SinkhornConfig:
    """Entropic-solver knobs.

    lam: entropic regularization weight, > 0. Default 0.1.
    max_iterations: hard cap on full update pairs. Default 1000.
    marginal_tolerance: stop once the L-infinity marginal violation of
        the current plan is at or below this. Default 1e-9.
    log_domain: stabilize the scaling updates by absorbing them into
        log-domain potentials (default), instead of plain scaling, which
        raises NumericalOverflow when exp(-cost/lam) degenerates.
    """

    lam: float = 0.1
    max_iterations: int = 1000
    marginal_tolerance: float = 1e-9
    log_domain: bool = True

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if not self.marginal_tolerance > 0:
            raise ValueError(
                f"marginal_tolerance must be > 0, got {self.marginal_tolerance!r}"
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
# match bit for bit. The reverse is taken in log-sum-exp form on the
# effective potentials, whichever form ran the step. Each *_vjp pulls an
# adjoint back through the log-sum-exp step of the same name: it returns
# the adjoint of the step's input potential (col_vjp adds it into df in
# place) and adds the adjoint of -cost/lam into dkernel in place.

# Scalings outside [e^-_ABSORB, e^_ABSORB] are absorbed into the log
# potentials before the kernel products they scale lose precision.
_ABSORB = 30.0
_SCALING_LO = float(np.exp(-_ABSORB))
_SCALING_HI = float(np.exp(_ABSORB))


class _Rule:
    """Scaling updates u = mu / (K v), v = nu / (K^T u) on the kernel
    K = exp(-cost/lam + F + G), held in ``work``.

    F and G are absorbed log potentials; the effective potentials are
    f = F + log u and g = G + log v. With ``absorb`` (log-domain mode) the
    first iteration is a log-sum-exp pair, after which K is built. A
    fresh scaling that is not finite or leaves [e^-30, e^30] is dropped:
    its half-update is redone in log-sum-exp form from the effective
    potentials (with ``work`` as its workspace), folded into F and G, u and v
    reset to 1 and K rebuilt. Every half-update is thus the exact
    Sinkhorn step. Without ``absorb`` (plain scaling) F = G = 0, the
    kernel is unclamped, so honest underflow to zero shows up in the
    finite check of each half-update, which raises NumericalOverflow.

    The matvecs are einsum loops, not BLAS calls, so their bits do not
    depend on the BLAS thread count.
    """

    def __init__(
        self, cost: np.ndarray, mu: np.ndarray, nu: np.ndarray, lam: float, absorb: bool
    ):
        self.lam = lam
        self.kernel = cost * (-1.0 / lam)
        self.work = np.empty_like(self.kernel)
        self.mu = mu
        self.nu = nu
        self.log_mu = np.log(mu)
        self.log_nu = np.log(nu)
        self.absorb = absorb
        self.absorptions = 0
        self.start = np.zeros(nu.shape[0])
        self.F = np.zeros(mu.shape[0])
        self.G = self.start
        self.u = np.ones(mu.shape[0])
        self.v = np.ones(nu.shape[0])
        if not absorb:
            np.exp(self.kernel, out=self.work)

    def step(self) -> None:
        """One row and one column half-update."""
        if self.absorb and not self.absorptions:
            self.before = (self.G, self.v)
            f = self.row(self.start)
            self._absorb(f, self.col(f))
            return
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = self.mu / np.einsum("ij,j->i", self.work, self.v)
            if self._keep(u):
                self.u = u
            else:
                g = self.G + np.log(self.v)
                self._absorb(self.row(g), g)
            self.before = (self.G, self.v)
            v = self.nu / np.einsum("ij,i->j", self.work, self.u)
            if self._keep(v):
                self.v = v
            else:
                f = self.F + np.log(self.u)
                self._absorb(f, self.col(f))

    def estimate(self) -> float:
        """Cheap column violation of the plan before the last column update.

        That plan has colsum_j = nu_j * v_j / v_next_j, or in log form
        nu_j * exp(g_j - g_next_j), so its violation is free.
        """
        G, v = self.before
        if G is self.G:
            return float(np.abs(self.nu * (v / self.v - 1.0)).max())
        return float(np.abs(self.nu * np.expm1(G + np.log(v) - self.G)).max())

    def plan(self) -> np.ndarray:
        plan = self.work * self.u[:, None]
        plan *= self.v[None, :]
        return plan

    def _keep(self, scaling: np.ndarray) -> bool:
        # NaN fails both comparisons.
        if _SCALING_LO <= scaling.min() and scaling.max() <= _SCALING_HI:
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
        """Make f, g the absorbed potentials and rebuild K in place."""
        self.F, self.G = f, g
        self.u = np.ones_like(f)
        self.v = np.ones_like(g)
        self.absorptions += 1
        kernel = self.work
        np.add(self.kernel, f[:, None], out=kernel)
        kernel += g[None, :]
        # Zeros below the clamp, not exp(_EXP_CLAMP): those entries times
        # a small scaling would be subnormal, which is slow.
        np.exp(kernel, out=kernel, where=kernel > _EXP_CLAMP)
        np.maximum(kernel, 0.0, out=kernel)

    # -- log-sum-exp form: the start, absorptions and the reverse ----------

    def row(self, g: np.ndarray) -> np.ndarray:
        """f = log_mu - LSE_j(-cost/lam + g), max-shifted."""
        work = self.work
        np.add(self.kernel, g[None, :], out=work)
        shift = work.max(axis=1)
        work -= shift[:, None]
        np.maximum(work, _EXP_CLAMP, out=work)
        np.exp(work, out=work)
        return self.log_mu - (np.log(work.sum(axis=1)) + shift)

    def row_vjp(self, g, f, df, dkernel) -> np.ndarray:
        # d f / d (kernel + g) is minus the row softmax at this step.
        soft = np.exp(
            np.maximum(self.kernel + g[None, :] - (self.log_mu - f)[:, None], _EXP_CLAMP)
        )
        dkernel -= soft * df[:, None]
        return -np.einsum("ij,i->j", soft, df)

    def col(self, f: np.ndarray) -> np.ndarray:
        """g = log_nu - LSE_i(-cost/lam + f), max-shifted."""
        work = self.work
        np.add(self.kernel, f[:, None], out=work)
        shift = work.max(axis=0)
        work -= shift[None, :]
        np.maximum(work, _EXP_CLAMP, out=work)
        np.exp(work, out=work)
        return self.log_nu - (np.log(work.sum(axis=0)) + shift)

    def col_vjp(self, f, g, dg, df, dkernel) -> None:
        # d g / d (kernel + f) is minus the column softmax at this step.
        soft = np.exp(
            np.maximum(self.kernel + f[:, None] - (self.log_nu - g)[None, :], _EXP_CLAMP)
        )
        df -= np.einsum("ij,j->i", soft, dg)
        dkernel -= soft * dg[None, :]

    def plan_vjp(self, plan, dplan):
        # plan = exp(kernel + f + g): one product serves all three adjoints.
        weighted = dplan * plan
        return weighted.sum(axis=1), weighted.sum(axis=0), weighted

    def cost_vjp(self, dkernel: np.ndarray) -> np.ndarray:
        return dkernel * (-1.0 / self.lam)


def _marginal_error(plan: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    row = np.abs(plan.sum(axis=1) - mu).max()
    col = np.abs(plan.sum(axis=0) - nu).max()
    return float(max(row, col))


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

    rule = _Rule(cost, mu, nu, config.lam, absorb=config.log_domain)
    tol = config.marginal_tolerance
    for iterations in range(1, config.max_iterations + 1):
        rule.step()
        # Cheap estimate; the true violation is verified before
        # declaring convergence.
        if rule.estimate() <= tol or iterations == config.max_iterations:
            plan = rule.plan()
            error = _marginal_error(plan, mu, nu)
            if error <= tol:
                break
    # Free the kernel and workspace before the result is validated and
    # scored, which allocates plan-sized temporaries of its own.
    del rule
    # The column update pins total mass to 1 up to float residue, so the
    # Coupling mass invariant holds without renormalizing (renormalizing
    # would break bit-equality with the unrolled gradient path).
    coupling = Coupling(values=plan, row_marginal=mu, col_marginal=nu)
    return SinkhornResult(
        coupling=coupling,
        iterations=iterations,
        final_marginal_error=error,
        converged=error <= tol,
        transport_cost=transport_cost(coupling, cost),
    )


def unrolled_sinkhorn(cost: np.ndarray, config: SinkhornConfig, iterations: int):
    """Exactly ``iterations`` update pairs on uniform marginals, and their reverse.

    The forward replays the steps of :func:`sinkhorn` with no early
    stopping (``config``'s iteration cap and tolerance do not apply), so
    the plan equals the solver's plan after that many iterations. Returns
    ``(plan, pullback)``: ``pullback(dplan)`` maps d(loss)/d(plan) to
    d(loss)/d(cost) by walking the same steps backwards. Non-finite
    adjoints are left for the caller to detect.

    Raises:
        NumericalOverflow: scaling mode only, as in :func:`sinkhorn`.
    """
    m, n = cost.shape
    rule = _Rule(
        cost, uniform_marginal(m), uniform_marginal(n), config.lam, absorb=config.log_domain
    )
    # Step t leaves f_t = Fs[e] + log u_t and g_t = Gs[e] + log v_t, with
    # e = epochs[t] indexing the absorbed potentials current after it.
    us = np.empty((iterations, m))
    vs = np.empty((iterations, n))
    epochs = np.empty(iterations, dtype=np.intp)
    Fs, Gs = [rule.F], [rule.G]
    for t in range(iterations):
        rule.step()
        if rule.F is not Fs[-1]:  # every absorption assigns new F and G
            Fs.append(rule.F)
            Gs.append(rule.G)
        epochs[t] = len(Fs) - 1
        us[t] = rule.u
        vs[t] = rule.v
    plan = rule.plan()

    def pullback(dplan: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fs = np.array(Fs)[epochs] + np.log(us)
            gs = np.empty((iterations + 1, n))  # gs[t] feeds step t; gs[0] is the start
            gs[0] = rule.start
            np.add(np.array(Gs)[epochs], np.log(vs), out=gs[1:])
            df, dg, dkernel = rule.plan_vjp(plan, dplan)
            for t in range(iterations - 1, -1, -1):
                rule.col_vjp(fs[t], gs[t + 1], dg, df, dkernel)
                dg = rule.row_vjp(gs[t], fs[t], df, dkernel)
                df = np.zeros(m)
            return rule.cost_vjp(dkernel)

    return plan, pullback


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
