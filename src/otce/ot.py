"""Ground costs, the entropic Sinkhorn solver, and a brute-force oracle.

The solver minimizes ``sum(c * pi) - lam * H(pi)`` with
``H(pi) = -sum(pi * log(pi))`` over couplings with prescribed marginals.
Log-domain (log-sum-exp) updates are the default; the plain scaling
variant is kept for cross-checking and raises :class:`NumericalOverflow`
when ``exp(-c/lam)`` degenerates.

Each of the two update rules is written once, here: its kernel, row and
column half-updates, plan, cheap stopping estimate, and the reverse of
each step. :func:`sinkhorn` drives a rule with early stopping;
:func:`unrolled_sinkhorn` replays exactly K of the same steps for the
differentiable path in :mod:`otce.gradient` and walks them backwards.

Within one solve every reduction runs in a fixed sequential order, so
for a given cost the results are bit-stable across runs and thread
counts. The BLAS product in :func:`squared_euclidean_cost` is not.
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
    log_domain: use log-sum-exp updates (default) instead of plain
        scaling.
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


# -- update rules ----------------------------------------------------------
#
# A rule iterates a row potential f and a column potential g, starting
# from g = rule.start. The solver and the unrolled gradient both drive
# the same two half-updates, so their ops match bit for bit. Each *_vjp
# pulls an adjoint back through the step of the same name: it returns the
# adjoint of the step's input potential (col_vjp adds it into df in place)
# and adds the kernel adjoint into dkernel in place.

class _LogRule:
    """Log-sum-exp updates on log scalings; the kernel is -cost/lam."""

    def __init__(self, cost: np.ndarray, mu: np.ndarray, nu: np.ndarray, lam: float):
        self.lam = lam
        self.kernel = cost * (-1.0 / lam)
        self.nu = nu
        self.log_mu = np.log(mu)
        self.log_nu = np.log(nu)
        self.start = np.zeros(nu.shape[0])
        self.work = np.empty_like(self.kernel)

    def row(self, g: np.ndarray) -> np.ndarray:
        """f = log_mu - LSE_j(kernel + g), max-shifted."""
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
        return -(soft.T @ df)

    def col(self, f: np.ndarray) -> np.ndarray:
        """g = log_nu - LSE_i(kernel + f), max-shifted."""
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
        df -= soft @ dg
        dkernel -= soft * dg[None, :]

    def plan(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.exp(np.maximum(self.kernel + f[:, None] + g[None, :], _EXP_CLAMP))

    def plan_vjp(self, f, g, plan, dplan):
        # plan = exp(kernel + f + g): one product serves all three adjoints.
        weighted = dplan * plan
        return weighted.sum(axis=1), weighted.sum(axis=0), weighted

    def cost_vjp(self, dkernel: np.ndarray) -> np.ndarray:
        return dkernel * (-1.0 / self.lam)

    def col_violation(self, g: np.ndarray, g_next: np.ndarray) -> float:
        # The plan before the column update has colsum_j =
        # nu_j * exp(g_j - g_next_j), so its violation is free.
        return float(np.abs(self.nu * np.expm1(g - g_next)).max())


class _ScalingRule:
    """Plain scaling updates on u = exp(f), v = exp(g); the kernel is
    exp(-cost/lam).

    No exponent clamp: honest underflow to zero is what lets the finite
    check of each half-update detect a hopeless kernel.
    """

    def __init__(self, cost: np.ndarray, mu: np.ndarray, nu: np.ndarray, lam: float):
        self.lam = lam
        self.kernel = np.exp(cost * (-1.0 / lam))
        self.mu = mu
        self.nu = nu
        self.start = np.ones(nu.shape[0])

    def _finite(self, scaling: np.ndarray) -> np.ndarray:
        if not np.isfinite(scaling).all():
            raise NumericalOverflow(
                "scaling-mode Sinkhorn under/overflowed "
                f"(lam={self.lam!r}); retry with log_domain=True"
            )
        return scaling

    def row(self, v: np.ndarray) -> np.ndarray:
        """u = mu / (kernel @ v)."""
        # (kernel * v).sum keeps reductions sequential and deterministic.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._finite(self.mu / (self.kernel * v[None, :]).sum(axis=1))

    def row_vjp(self, v, u, du, dkernel) -> np.ndarray:
        # u = mu / kv, so du / dkv = -u / kv = -u * u / mu.
        dkv = -du * (u * u / self.mu)
        dkernel += dkv[:, None] * v[None, :]
        return self.kernel.T @ dkv

    def col(self, u: np.ndarray) -> np.ndarray:
        """v = nu / (kernel.T @ u)."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._finite(self.nu / (self.kernel * u[:, None]).sum(axis=0))

    def col_vjp(self, u, v, dv, du, dkernel) -> None:
        # v = nu / ku, so dv / dku = -v / ku = -v * v / nu.
        dku = -dv * (v * v / self.nu)
        dkernel += u[:, None] * dku[None, :]
        du += self.kernel @ dku

    def plan(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u[:, None] * self.kernel * v[None, :]

    def plan_vjp(self, u, v, plan, dplan):
        # plan = u * kernel * v (outer product structure)
        return (
            (dplan * self.kernel * v[None, :]).sum(axis=1),
            (dplan * self.kernel * u[:, None]).sum(axis=0),
            dplan * u[:, None] * v[None, :],
        )

    def cost_vjp(self, dkernel: np.ndarray) -> np.ndarray:
        # kernel = exp(-cost/lam)
        return dkernel * self.kernel * (-1.0 / self.lam)

    def col_violation(self, v: np.ndarray, v_next: np.ndarray) -> float:
        # As in the log rule: colsum_j = nu_j * v_j / v_next_j.
        return float(np.abs(self.nu * (v / v_next - 1.0)).max())


def _rule(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray, config: SinkhornConfig):
    rule = _LogRule if config.log_domain else _ScalingRule
    return rule(cost, mu, nu, config.lam)


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

    rule = _rule(cost, mu, nu, config)
    tol = config.marginal_tolerance
    g = rule.start
    for iterations in range(1, config.max_iterations + 1):
        f = rule.row(g)
        g_next = rule.col(f)
        # Cheap estimate; the true violation is verified before
        # declaring convergence.
        estimate = rule.col_violation(g, g_next)
        g = g_next
        if estimate <= tol or iterations == config.max_iterations:
            plan = rule.plan(f, g)
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
    rule = _rule(cost, uniform_marginal(m), uniform_marginal(n), config)
    fs = np.empty((iterations, m))
    gs = np.empty((iterations + 1, n))  # gs[t] feeds step t; gs[0] is the start
    gs[0] = g = rule.start
    for t in range(iterations):
        fs[t] = f = rule.row(g)
        gs[t + 1] = g = rule.col(f)
    plan = rule.plan(f, g)

    def pullback(dplan: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            df, dg, dkernel = rule.plan_vjp(f, g, plan, dplan)
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
