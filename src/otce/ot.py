"""Ground costs, the entropic Sinkhorn solver, and a brute-force oracle.

The solver minimizes ``sum(c * pi) - lam * H(pi)`` with
``H(pi) = -sum(pi * log(pi))`` over couplings with prescribed marginals.
It iterates the scaling updates ``u = mu / (K v)``, ``v = nu / (K^T u)``
on a kernel ``K = exp(-c/lam + F + G)``. The iteration is stabilized:
whenever a scaling leaves ``[e^-_ABSORB, e^_ABSORB]``, it is absorbed
into the log potentials F and G and the kernel is rebuilt (Schmitzer
2019, "Stabilized sparse scaling algorithms for entropy regularized
transport", Alg. 2): folded in as it stands where the fold rule of
:func:`_floor` allows, else with its half-update redone in log-sum-exp
form (see :class:`_Rule`, which also says how the iteration starts).
A rebuilt kernel is exactly zero below a floor (:func:`_floor`) that
leaves every half-update unchanged to the bit in practice; when few
entries are left nonzero, the iteration steps over those alone
(Schmitzer's sparse truncated kernel), in 2-D and, while every problem
of a batch holds its nonzeros, over a batch's padded stack.

The rule is written once, here: its kernel, its row and column
half-updates in scaling and in log-sum-exp form, the plan, the cheap
stopping estimate, and the reverse of each step. One driver,
:func:`_stops`, steps it until each problem stops: :func:`sinkhorn`'s
one, or :func:`batched_sinkhorn`'s many small ones (jc-otce's class
pairs) as padded stacks of problems of similar shape, with the same rule
applied per problem wherever problems differ, so each takes the steps of
:func:`sinkhorn` on its cost alone, to the bit. :func:`unrolled_sinkhorn`
replays exactly K of the same steps on such a stack, for the
differentiable path in :mod:`otce.gradient` (one problem, or the steps of
a target epoch), and walks them backwards, every half-step, kept, folded
or redone, as matvecs on its epoch's kernel (the kernel between two of
its problem's absorptions, rebuilt once per epoch), with no exp per step.

The solvers and the unrolled reverse use no BLAS call: every product is
an einsum, ufunc or sequential ``np.bincount`` loop and every reduction
runs in a fixed sequential order, so for a given cost the results are
bit-stable across runs and thread counts, and across the cost's memory
layouts: the arrays the rule sums over are in C order whatever the
cost's. The BLAS product in :func:`squared_euclidean_cost` is not.

A rule holds its cost, not -cost/lam: every kernel rebuild and
log-sum-exp redo forms the exponent from the cost in the array it
fills, so a solve holds its cost and one m x n work array, and a batch
of costs passed as a list holds the caller's arrays as they are.

A step's matvec may be zero or huge, so its scaling may divide by zero
or overflow; the range test catches that. The caller of ``_Rule.step``
therefore holds the floating-point error state that ignores those
warnings, once for a whole run of steps: on small problems, entering
``np.errstate`` once per step cost about a tenth of the step. It never
spans a ``yield`` of :func:`_stops`: numpy keeps an error state entered
in a suspended generator in force in its caller, where it would hide
the warnings of the caller's own arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Coupling, _adopt, _check_integer, _check_real, _marginal_error
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

# A kernel rebuild that leaves at most this share of its entries above
# the floor computes those alone and holds them as its pattern, and its
# matvecs run over the pattern; above it, the rebuild runs exp densely
# and masks after, and the matvecs are dense. A sparse matvec pair broke
# even with the dense one near 9% at 1000x1000 and near 7-8% at 200x200
# to 700x700; the sparse rebuild alone breaks even near 5% at 100x100 and
# 1000x1000, but many matvec pairs follow each rebuild. A _Batch stack
# steps sparse while each of its problems is at or below it; on jc-otce's
# 100 class pairs (a 100x100x107 stack, 2.9% nonzero) a stacked bincount
# pair took 210-290 us against 1040-1160 us for the einsums.
_SPARSE_SHARE = 0.07

# A _Batch lays its problems' patterns out in one stacked pattern, each
# in a slot 1/_ROOM longer than itself, and writes a rebuilt pattern that
# fits its slot in place. On jc-otce's class pairs (perfbench seed 1), 7
# layouts served 4542 rebuilds; concatenating the stacked pattern anew
# at each of its ~1500 changes took ~0.26 s of a ~2 s label stage.
_ROOM = 8


@dataclass(frozen=True)
class SinkhornConfig:
    """Entropic-solver knobs.

    lam: entropic regularization weight, finite and > 0. Default 0.1.
    max_iterations: hard cap on full update pairs. Default 1000.
    marginal_tolerance: stop once the L-infinity marginal violation of
        the current plan is at or below this; finite and > 0. Default 1e-9.
    log_domain: must be True, its default: the scaling updates are
        always stabilized by absorbing them into log-domain potentials.
        Plain scaling (False) was removed, and any value but True raises
        ValueError. The field stays so that configs and reports that name
        it keep working.
    """

    lam: float = 0.1
    max_iterations: int = 1000
    marginal_tolerance: float = 1e-9
    log_domain: bool = True

    def __post_init__(self) -> None:
        # Infinite lam gives the independent coupling, scored as converged;
        # an infinite tolerance would stop the first step, flagged converged.
        _check_real("lam", self.lam, 0.0, open_low=True)
        _check_integer("max_iterations", self.max_iterations, 1)
        _check_real("marginal_tolerance", self.marginal_tolerance, 0.0, open_low=True)
        if self.log_domain is not True:
            raise ValueError(
                f"log_domain must be True, got {self.log_domain!r}: "
                "plain scaling (log_domain=False) was removed"
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


def _check_features(xs, xt) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` and ``xt`` as float64 arrays, which must be 2-D (samples,
    features) with one feature dimension (else DimensionMismatch)."""
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if xs.ndim != 2 or xt.ndim != 2:
        raise DimensionMismatch("features must be 2-D (samples, features)")
    if xs.shape[1] != xt.shape[1]:
        raise DimensionMismatch(f"feature dimensions differ: {xs.shape[1]} vs {xt.shape[1]}")
    return xs, xt


def squared_euclidean_cost(xs: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, an (m, n) cost matrix.

    cost[i, j] = || xs[i] - xt[j] ||^2, clipped at zero to absorb the
    tiny negatives the expanded form can produce.
    """
    xs, xt = _check_features(xs, xt)
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


def _check_cost(cost) -> np.ndarray:
    """``cost`` as a float64 array, which must be 2-D, non-empty and finite
    (else DimensionMismatch)."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise DimensionMismatch(f"cost must be 2-D, got ndim={cost.ndim}")
    if not cost.size:
        raise DimensionMismatch(f"cost must not be empty, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise DimensionMismatch("cost matrix must be finite")
    return cost


# -- the update rule -------------------------------------------------------
#
# The Sinkhorn iteration alternates a row potential f and a column
# potential g, starting from g = 0. _Rule computes each half-update as a
# kernel matvec, and in log-sum-exp form where an absorption cannot take
# its scaling as it stands. The solver and the unrolled gradient both
# drive _Rule.step, so their ops match bit for bit. The reverse has one
# form (_Taped.pullback): a half-step's softmax is its epoch's kernel
# times u v^T, over mu or nu. An absorbed half-step, folded or redone,
# opens its epoch with u = v = 1, so the kernel its absorption builds is
# its softmax (to rounding, if folded), and it is pulled back by the same
# matvecs as a kept one.

# Scalings outside [e^-_ABSORB, e^_ABSORB] are absorbed into the log
# potentials before the kernel products they scale lose precision.
_ABSORB = 60.0
_SCALING_LO = float(np.exp(-_ABSORB))
_SCALING_HI = float(np.exp(_ABSORB))

# A rebuilt kernel's floor holds the error of a kept half-step e^_MARGIN
# below the unit roundoff, and a folded one spends half that margin (the
# fold rule, see _floor).
_MARGIN = 20.0
_FOLD_HI = float(np.exp(_ABSORB + _MARGIN / 2.0))


# The kernel every rule starts on (see _Rule): a pattern with no entries,
# read-only, as every rule shares it.
_EMPTY = tuple(np.broadcast_to(dtype(0), (0,)) for dtype in (np.intp, np.intp, np.float64))


def _check_exponent(cost: np.ndarray, lam: float) -> None:
    """Check that -cost/lam, the exponent of every kernel, is finite.

    Raises:
        NumericalOverflow: it is not: lam is so small that a nonzero
            cost over it, or 1/lam itself, overflows.
    """
    # Python floats, which overflow without a warning. Rounding is
    # monotone, so every product is finite if the one with the largest
    # |cost| is; 0 * inf is NaN.
    if not math.isfinite(-1.0 / float(lam) * float(max(cost.max(), -cost.min()))):
        raise NumericalOverflow(f"-cost/lam overflows (lam={lam!r})")


def _floor(log_mu: np.ndarray, log_nu: np.ndarray) -> float:
    """ln tau, the truncation floor of a rebuilt m x n kernel on marginals
    exp(log_mu) and exp(log_nu), never below _EXP_CLAMP.

    A kept row half has (K v)_i = mu_i / u_i >= mu_i e^-_ABSORB and every
    v_j <= e^_ABSORB, so the kernel entries below tau change it by at most
    n tau e^(2 _ABSORB) / mu_i of itself; the column half likewise, with
    m and nu. This tau holds that below 2^-53 e^-_MARGIN: the unit
    roundoff, with a margin of e^_MARGIN (e^20).

    The fold rule: a fresh scaling outside the range that is finite,
    positive and at most _FOLD_HI = e^(_ABSORB + delta), delta =
    _MARGIN / 2, is folded into the potentials as it stands. Its
    half-step has u_i up to e^(_ABSORB + delta), so it is off by at most
    2^-53 e^(delta - _MARGIN) = 2^-53 e^-10 of itself; below the range,
    (K v)_i is only larger and the bound only smaller. Any other scaling
    has its half-step redone in log-sum-exp form.
    """
    spread = max(math.log(log_nu.size) - log_mu.min(), math.log(log_mu.size) - log_nu.min())
    return max(_EXP_CLAMP, -(2.0 * _ABSORB + 53.0 * math.log(2.0) + _MARGIN + float(spread)))


def _foldable(scaling: np.ndarray) -> bool:
    """Whether a fresh 1-D scaling outside the range is folded into the
    potentials as it stands, by the fold rule of :func:`_floor`. NaN
    fails both comparisons."""
    return 0.0 < scaling.min() and scaling.max() <= _FOLD_HI


def _pattern_matvec(pattern, scaling: np.ndarray, axis: int, shape) -> np.ndarray:
    """K v (axis 0) or K^T u (axis 1) of the kernel whose nonzeros
    ``pattern`` holds, as a sequential bincount into an array of ``shape``.

    The pattern indexes the flattened scalings and product, so one
    bincount serves a 2-D kernel and a _Batch's stacked pattern alike.
    """
    rows, cols, data = pattern
    into, read = (cols, rows) if axis else (rows, cols)
    weights = data * scaling.reshape(-1)[read]
    return np.bincount(into, weights=weights, minlength=math.prod(shape)).reshape(shape)


def _in_range(scaling: np.ndarray) -> np.ndarray:
    """Whether the scalings of each problem, along the last axis, lie in
    [e^-_ABSORB, e^_ABSORB]. _Rule.step tests a whole scaling inline."""
    # NaN fails both comparisons.
    return (_SCALING_LO <= scaling.min(axis=-1)) & (scaling.max(axis=-1) <= _SCALING_HI)


class _Rule:
    """Scaling updates u = mu / (K v), v = nu / (K^T u) on the kernel
    K = exp(-cost/lam + F + G), held in ``work``.

    The rule holds ``cost`` and ``scale`` = -1/lam, not -cost/lam: each
    rebuild and log-sum-exp redo writes ``cost * scale`` into the array
    it fills, the same product, so the same bits, as a held -cost/lam.

    F and G are absorbed log potentials; the effective potentials are
    f = F + log u and g = G + log v. :meth:`step` puts each fresh scaling
    in place, and one that leaves [e^-_ABSORB, e^_ABSORB] is absorbed
    (:meth:`_absorb_row`, :meth:`_absorb_col`; a _Batch overrides them to
    absorb per problem): the effective potentials become F and G, u and v
    are reset to 1 and K is rebuilt, exactly zero below a floor (see
    :func:`_floor`). A scaling that the fold rule of :func:`_floor` admits
    is folded in as it stands (:func:`_foldable`). Any other is dropped
    and its half-update redone in log-sum-exp form from the effective
    potentials (with ``work`` as its workspace). Every half-update is thus
    the exact Sinkhorn step, to the bit in practice.

    The start: a rule starts on the empty kernel (``_EMPTY``, set by
    :meth:`on`), whose first row scalings are infinite. So its
    first row half is redone, and that absorption first builds K; its
    first column half is redone too if some column keeps no entry above
    the floor. After the start a redo is rare: in practice every later
    absorption folds.

    ``work`` is K's dense store and the log-sum-exp form's workspace, in C
    order whatever the cost's: the dense matvecs sum in memory order, so
    the plan's bits do not depend on the cost's layout. The
    matvecs (einsums) and the plan read it, or, while an absorption has
    left K sparse, K's nonzeros alone (``pattern``: flat rows, columns and
    values, row-major), as ``np.bincount`` sums and as the dense form's
    products; ``work`` is then scratch, which the reverse fills from the
    pattern and every rebuild and redo overwrites whole. A rule that owns
    its ``work`` (``owns_work``: :meth:`on`'s, not a _Batch problem's view
    into a stack) writes a sparse kernel's plan into it: the solve then
    holds no m x n array but its cost and ``work``. Both
    matvecs are sequential, not BLAS calls, so their bits do not depend
    on the BLAS thread count. The sparse column product adds the same
    terms in the same order as the einsum, so it is bit-identical; the
    sparse row product differs from it by rounding.
    """

    def __init__(self, cost, work, mu, nu, log_mu, log_nu, lam: float, F, G, u, v):
        """The rule on prepared arrays: ``cost``, whose -cost/lam is
        finite, ``work`` holds K, ``log_mu`` and ``log_nu`` are the logs of
        the marginals, F and G are the absorbed log potentials and u, v
        the scalings."""
        self.lam = lam
        self.scale = -1.0 / float(lam)
        self.pattern = None
        self.owns_work = False
        self.absorptions = 0
        self.cost = cost
        self.work = work
        self.mu = mu
        self.nu = nu
        self.log_mu = log_mu
        self.log_nu = log_nu
        self.F, self.G, self.u, self.v = F, G, u, v

    @classmethod
    def on(cls, cost: np.ndarray, mu: np.ndarray, nu: np.ndarray, lam: float):
        """The rule at the start of a solve on ``cost``: F = G = 0, u = v = 1,
        on the empty kernel (see the class docstring)."""
        _check_exponent(cost, lam)
        m, n = cost.shape
        rule = cls(
            cost, np.empty((m, n)), mu, nu, np.log(mu), np.log(nu), lam,
            np.zeros(m), np.zeros(n), np.ones(m), np.ones(n),
        )
        rule.pattern = _EMPTY
        rule.owns_work = True
        return rule

    # Matvec subscripts; _Batch prefixes them with its problem axis.
    _KV = "ij,j->i"
    _KTU = "ij,i->j"

    def step(self) -> None:
        """One row and one column half-update, in the error state that the
        caller holds (see the module docstring).

        ``before`` is left holding the state after the row half:
        (absorptions, F, G, u, v); ``fresh`` holds the column half's fresh
        scaling, as it was before any absorption.
        """
        # Each fresh scaling is put in place; one out of range, of one
        # problem or anywhere in a _Batch stack, is absorbed, where a _Batch
        # tests its stacks per problem. x.item(x.argmin()) is the minimum,
        # or the first NaN, which fails both comparisons; on small scalings
        # it costs a third of a ufunc reduction.
        u = self.u = self.mu / self._matvec(self.v, 0)
        if not (_SCALING_LO <= u.item(u.argmin()) and u.item(u.argmax()) <= _SCALING_HI):
            self._absorb_row()
        self.before = (self.absorptions, self.F, self.G, self.u, self.v)
        v = self.v = self.fresh = self.nu / self._matvec(self.u, 1)
        if not (_SCALING_LO <= v.item(v.argmin()) and v.item(v.argmax()) <= _SCALING_HI):
            self._absorb_col()

    def _matvec(self, scaling: np.ndarray, axis: int) -> np.ndarray:
        """K v (axis 0) or K^T u (axis 1): an einsum over the dense K, or
        with a held pattern a sequential bincount over K's nonzeros."""
        if self.pattern is None:
            return np.einsum(self._KTU if axis else self._KV, self.work, scaling)
        return _pattern_matvec(self.pattern, scaling, axis, (self.v if axis else self.u).shape)

    def _absorb_row(self) -> None:
        """Absorb the row half-update whose fresh u is in place: u folded
        into F as it stands if :func:`_foldable`, else the half-update
        redone in log-sum-exp form."""
        g = self.G + np.log(self.v)
        self._absorb(self.F + np.log(self.u) if _foldable(self.u) else self.lse(g, 0), g)

    def _absorb_col(self) -> None:
        """Absorb the column half-update whose fresh v is in place, as
        :meth:`_absorb_row` does the row half."""
        f = self.F + np.log(self.u)
        self._absorb(f, self.G + np.log(self.v) if _foldable(self.v) else self.lse(f, 1))

    def near(self, tol: float) -> np.ndarray:
        """The problems whose cheap estimate meets ``tol``, as the driver
        asks after every step.

        The estimate is the column violation of the plan before the last
        column half, on the kernel it was built from: its column sums are
        nu_j v_j / v_fresh_j, with v from ``before`` and v_fresh the
        ``fresh`` scaling, so the violation is free whether the column
        half kept, folded or redid v_fresh. A redone v_fresh (0, inf or
        past the fold bound) gives about nu_j or inf, which meets no
        tolerance below nu_j. The maximum is taken over the last axis: one
        value per problem.
        """
        # np.maximum.reduce, not ndarray.max, and nonzero, not
        # np.flatnonzero, which wrap them in Python; with keepdims a 2-D
        # rule's estimate is an array too, which nonzero requires.
        estimate = np.maximum.reduce(
            np.abs(self.nu * (self.before[4] / self.fresh - 1.0)), -1, keepdims=True
        )
        return (estimate <= tol).nonzero()[0]

    def problem(self, k: int) -> _Rule:
        """Problem k of the rule; a one-problem rule is its own problem 0."""
        return self

    def plan(self) -> np.ndarray:
        """The plan K u v^T: a new array, or with a sparse K the rule's own
        ``work``, if it owns it (see the class docstring)."""
        if self.pattern is None:
            plan = self.work * self.u[:, None]
            plan *= self.v[None, :]
            return plan
        rows, cols, data = self.pattern
        shape = (self.u.size, self.v.size)
        plan = self.work if self.owns_work else np.empty(shape)
        plan.fill(0.0)
        plan[rows, cols] = data * self.u[rows] * self.v[cols]
        return plan

    def _absorb(self, f: np.ndarray, g: np.ndarray) -> None:
        """Make f, g the absorbed potentials, rebuild K in place and pick
        the form of its matvecs."""
        self.F, self.G = f, g
        self.u = np.ones_like(f)
        self.v = np.ones_like(g)
        self.absorptions += 1
        self.pattern = self._build(f, g, self.work)

    def _build(self, f: np.ndarray, g: np.ndarray, out: np.ndarray):
        """K = exp(-cost/lam + f + g), zero below the rule's floor
        (:func:`_floor`).

        Returns K's pattern if at most _SPARSE_SHARE of it is nonzero, and
        leaves ``out`` as scratch (:func:`_scatter` writes K from the
        pattern); else writes K into ``out`` and returns None.
        """
        np.multiply(self.cost, self.scale, out=out)
        out += f[:, None]
        out += g[None, :]
        # Zeros below the floor, not exp(floor): exact zeros are what the
        # sparse matvecs skip, and an entry near exp(-700) times a small
        # scaling would be subnormal, which is slow. Both forms give the
        # same bits; the sparse one runs exp over the kept entries alone.
        floor = _floor(self.log_mu, self.log_nu)
        above = out > floor
        if np.count_nonzero(above) > _SPARSE_SHARE * out.size:
            np.maximum(out, floor, out=out)
            np.exp(out, out=out)
            out *= above
            return None
        index = np.flatnonzero(above)
        data = out.take(index)
        np.exp(data, out=data)
        rows, cols = np.divmod(index, out.shape[1])
        return rows, cols, data

    # -- log-sum-exp form: absorptions -------------------------------------

    def lse(self, potential: np.ndarray, axis: int) -> np.ndarray:
        """A half-update from the other side's potential, max-shifted, on
        :meth:`_matvec`'s axis: f = log_mu - LSE_j(-cost/lam + g) from g
        (axis 0), or g = log_nu - LSE_i(-cost/lam + f) from f (axis 1)."""
        work = self.work
        np.multiply(self.cost, self.scale, out=work)
        work += potential[:, None] if axis else potential[None, :]
        shift = work.max(axis=1 - axis)
        work -= shift[None, :] if axis else shift[:, None]
        np.maximum(work, _EXP_CLAMP, out=work)
        np.exp(work, out=work)
        return (self.log_nu if axis else self.log_mu) - (np.log(work.sum(axis=1 - axis)) + shift)


class _Batch(_Rule):
    """Independent problems stacked on a leading axis and stepped together.

    Problem k fills the top-left m_k x n_k corner of slice k of the
    padded stacks. The padding holds marginals and products of 1, so
    padded scalings are 1 and pass every range test: _Rule.step tests the
    fresh stacks whole, and :meth:`_absorb_row` and :meth:`_absorb_col`
    those out of range per problem. Whatever differs between problems
    runs per problem, through _Rule's own methods on a 2-D view of it
    (:meth:`problem`): the absorption of a scaling that leaves range
    (:meth:`_absorb_one`, counted per problem in ``absorptions``) and the
    plan. An absorbing half-step first copies the stacks that something
    still reads (``_SHARED``), so that ``fresh``, and a tape's records,
    are never overwritten.

    ``costs`` holds each problem's cost, which only its per-problem
    steps read: the caller's arrays as they are, or the blocks of a
    ``source`` cost, gathered once into one buffer. A problem's
    absorptions form its kernel from its cost in contiguous scratch, in
    C order, as its 2-D rule does in its ``work``.

    Each problem's products are those of its 2-D rule, to the bit, in the
    form its kernel is held in. While every problem holds a pattern
    (``parts``: its last rebuild's, or the empty kernel's at the start),
    the matvecs are one bincount over a stacked pattern
    (:meth:`_layout`), which holds each problem's nonzeros in its own
    row-major order. While some problem is dense, the batch holds the
    padded dense stack ``work`` (:meth:`_settle`), whose padding is zero
    and which holds the dense problems' kernels alone. Its column matvec
    is one einsum, which sums each column in sequence, so the padding
    adds exact zeros. Its row matvec sums each row over its contiguous
    entries in an order that depends on their count, so it is one einsum
    per run of consecutive problems with one column count, each over
    those columns alone. A problem of one column sums it as a dot
    product, as its 2-D einsum does, so it takes its own product, and one
    that holds a pattern takes its own as a bincount, which overwrites
    what the einsums read from its corner of the stack.
    """

    _KV = "bij,bj->bi"
    _KTU = "bij,bi->bj"

    def __init__(self, costs: list, lam: float, source: np.ndarray | None = None):
        """The batch of the problems on ``costs``, or with ``source`` on
        its blocks ``source[np.ix_(rows, cols)]``, each named by a pair
        (rows, cols) of index arrays in ``costs``."""
        # One buffer holds the gathered blocks, so it is freed in one piece.
        if source is None:
            self.costs = list(costs)
        else:
            sizes = [rows.size * cols.size for rows, cols in costs]
            flat = np.empty(sum(sizes))
            self.costs = []
            for (rows, cols), stop, size in zip(costs, itertools.accumulate(sizes), sizes):
                block = flat[stop - size:stop].reshape(rows.size, cols.size)
                block[...] = source[np.ix_(rows, cols)]
                self.costs.append(block)
        for cost in self.costs:
            _check_exponent(cost, lam)
        self.shapes = [cost.shape for cost in self.costs]
        count = len(costs)
        rows, cols = (max(extent) for extent in zip(*self.shapes))
        mu = np.ones((count, rows))
        nu = np.ones((count, cols))
        for k, (m, n) in enumerate(self.shapes):
            mu[k, :m] = uniform_marginal(m)
            nu[k, :n] = uniform_marginal(n)
        super().__init__(
            None, None, mu, nu, np.log(mu), np.log(nu), lam,
            np.zeros_like(mu), np.zeros_like(nu), np.ones_like(mu), np.ones_like(nu),
        )
        self.absorptions = np.zeros(count, dtype=np.intp)
        self._group()
        self.scratch = np.empty(max(m * n for m, n in self.shapes))
        # Each problem's pattern in its own indices, or None while its
        # kernel is dense.
        self.parts = [_EMPTY] * count
        self._layout()

    def _group(self) -> None:
        """What the shapes fix: ``pads``, per axis 1 in the padding of the
        row (0) or column (1) stacks and 0 elsewhere, or None where nothing
        is padded, which added to a product puts the padding's 1 in place;
        ``runs``, the runs of consecutive problems with one column count,
        or None if there is one; and ``singles``, the problems of one
        column among wider ones."""
        extents = [np.array(extent)[:, None] for extent in zip(*self.shapes)]
        self.pads = [
            None if extent.min() == stack.shape[1] else 1.0 * (np.arange(stack.shape[1]) >= extent)
            for extent, stack in zip(extents, (self.mu, self.nu))
        ]
        columns = [n for _, n in self.shapes]
        starts = [k for k in range(len(columns)) if not k or columns[k] != columns[k - 1]]
        # Each run is held as the slices of the dense stack, of the column
        # scalings and of the row product that its einsum takes.
        self.runs = [
            ((run, slice(None), slice(columns[run.start])), (run, slice(columns[run.start])), run)
            for run in map(slice, starts, starts[1:] + [len(columns)])
        ] if len(starts) > 1 else None
        wide = self.nu.shape[1] > 1
        self.singles = [k for k, n in enumerate(columns) if n == 1 and wide]

    def problem(self, k: int) -> _Rule:
        """Problem k as a 2-D _Rule on its cost, its pattern and views into the stacks.

        The views share memory with the stacks except where a method
        assigns a new array (an absorption); :meth:`_absorb_one` copies those back.
        """
        m, n = self.shapes[k]
        rule = _Rule(
            self.costs[k], None if self.work is None else self.work[k, :m, :n],
            self.mu[k, :m], self.nu[k, :n], self.log_mu[k, :m], self.log_nu[k, :n],
            self.lam, self.F[k, :m], self.G[k, :n], self.u[k, :m], self.v[k, :n],
        )
        rule.pattern = self.parts[k]
        return rule

    def _absorb_one(self, k: int, half) -> None:
        """Run ``half``, a half-step that absorbs (:meth:`_Rule._absorb_row`
        or :meth:`_Rule._absorb_col`), on problem k, whose fresh scaling is
        in place: it folds that scaling or redoes the half-step, as in
        :class:`_Rule`.

        It works in contiguous scratch rather than in the strided view of
        the stack, where the kernel rebuild takes about 1.5 times as long.
        A dense kernel is written into the dense stack (:meth:`_settle`
        holds one for it); a pattern is kept for the matvecs, and written
        into its slot of the stacked pattern while no dense stack is held.
        """
        rule = self.problem(k)
        m, n = self.shapes[k]
        rule.work = self.scratch[: m * n].reshape(m, n)
        half(rule)
        self.F[k, :m], self.u[k, :m] = rule.F, rule.u
        self.G[k, :n], self.v[k, :n] = rule.G, rule.v
        self.absorptions[k] += 1
        self.parts[k] = rule.pattern
        # A pattern taken while no dense stack is held leaves the form as
        # it is, so it skips _settle's scan of every problem: on jc-otce's
        # 100 class pairs at 1000x512, that scan at each absorption cost
        # about 2% of the score's time (2 vCPUs).
        if rule.pattern is None or self.work is not None:
            self._settle()
        if rule.pattern is None:
            self.work[k, :m, :n] = rule.work
        elif self.pattern is not None:
            self._place(k)

    def _settle(self) -> None:
        """Hold the dense stack ``work`` iff some problem is dense. Its
        padding is zero and stays so; while it is held, ``sparse`` lists the
        problems that hold a pattern, whose corners of it no product reads,
        and no stacked pattern is held."""
        if None not in self.parts:
            self.work = None
            return
        if self.work is None:
            self.work = np.zeros(self.u.shape + self.v.shape[1:])
            self.pattern = None
        self.sparse = [k for k, part in enumerate(self.parts) if part is not None]

    def _layout(self) -> None:
        """The stacked pattern: a slot per problem, 1/_ROOM longer than its
        pattern, at its offset in the flattened stacks."""
        sizes = np.array([data.size for _, _, data in self.parts])
        slots = sizes + sizes // _ROOM
        stops = np.cumsum(slots)
        self.slots = list(zip((stops - slots).tolist(), stops.tolist()))
        first = np.arange(len(self.parts))
        self.pattern = (
            np.repeat(first * self.u.shape[1], slots),
            np.repeat(first * self.v.shape[1], slots),
            np.empty(stops[-1]),
        )
        for k in range(len(self.parts)):
            self._place(k)

    def _place(self, k: int) -> None:
        """Write problem k's pattern into its slot of the stacked pattern,
        or drop the stacked pattern if it no longer fits."""
        part, (start, stop) = self.parts[k], self.slots[k]
        if start + part[2].size > stop:
            self.pattern = None
            return
        end = start + part[2].size
        rows, cols, data = self.pattern
        np.add(part[0], k * self.u.shape[1], out=rows[start:end])
        np.add(part[1], k * self.v.shape[1], out=cols[start:end])
        data[start:end] = part[2]
        # The slot's rest indexes problem k's rows and columns, at weight
        # zero, so it adds nothing to its sums.
        data[end:stop] = 0.0

    def _matvec(self, scaling: np.ndarray, axis: int) -> np.ndarray:
        work = self.work
        if work is None:
            if self.pattern is None:
                self._layout()
            shape = (self.v if axis else self.u).shape
            product = _pattern_matvec(self.pattern, scaling, axis, shape)
        else:
            if axis:
                product = np.einsum(self._KTU, work, scaling)
                for k in self.singles:
                    m = self.shapes[k][0]
                    product[k, 0] = np.einsum("i,i->", work[k, :m, 0].copy(), scaling[k, :m])
            elif self.runs is None:
                product = np.einsum(self._KV, work, scaling)
            else:
                product = np.empty(self.u.shape)
                for stack, read, write in self.runs:
                    np.einsum(self._KV, work[stack], scaling[read], out=product[write])
            for k in self.sparse:
                m, n = self.shapes[k]
                size, read = (n, m) if axis else (m, n)
                product[k, :size] = _pattern_matvec(self.parts[k], scaling[k, :read], axis, (size,))
        pad = self.pads[axis]
        # Not in place: on the empty kernel, bincount's sums are integers.
        return product if pad is None else product + pad

    def _absorb_row(self) -> None:
        self._absorb_each(self.u, _Rule._absorb_row)

    def _absorb_col(self) -> None:
        self._absorb_each(self.v, _Rule._absorb_col)

    # The stacks that an absorption writes into in place while something
    # still reads them: the fresh v, which the stop estimate reads (a
    # _Taped adds every stack its records hold).
    _SHARED = ("v",)

    def _absorb_each(self, scaling: np.ndarray, half) -> None:
        """Absorb ``half`` on each problem whose fresh ``scaling`` is outside
        the range, into copies of the shared stacks."""
        rejects = np.flatnonzero(~_in_range(scaling))
        if len(rejects):
            for name in self._SHARED:
                setattr(self, name, getattr(self, name).copy())
            for k in rejects:
                self._absorb_one(k, half)

    def retain(self, alive: np.ndarray) -> None:
        """Drop the problems not marked alive from the stacks."""
        for name in ("work", "mu", "log_mu", "F", "u", "nu", "log_nu", "G", "v", "absorptions"):
            stack = getattr(self, name)
            setattr(self, name, stack if stack is None else stack[alive])
        self.costs = [cost for cost, keep in zip(self.costs, alive) if keep]
        self.shapes = [cost.shape for cost in self.costs]
        self.parts = [part for part, keep in zip(self.parts, alive) if keep]
        self._group()
        self.pattern = None
        self._settle()


def _stops(rule: _Rule, problems, config: SinkhornConfig):
    """Step ``rule`` until each of its problems stops, yielding each as it does.

    ``problems`` names the problem in each slot. A problem stops once the
    true marginal error of its plan, checked when its cheap estimate
    meets the tolerance, meets it too, or at the iteration cap; it is
    yielded as ``(name, plan, iterations, error)`` and dropped from the rule.
    The steps and their cheap estimates run in the steps' error state,
    entered once per run of steps up to the next check of candidates.
    """
    tol = config.marginal_tolerance
    active = np.asarray(problems)
    iterations = 0
    while active.size:
        # Held until a step leaves candidates to check, never across a yield.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while True:
                iterations += 1
                rule.step()
                last = iterations == config.max_iterations
                candidates = range(active.size) if last else rule.near(tol)
                if len(candidates):
                    break
        alive = np.ones(active.size, dtype=bool)
        for k in candidates:
            problem = rule.problem(k)
            plan = problem.plan()
            error = _marginal_error(plan, problem.mu, problem.nu)
            if error <= tol or last:
                yield active[k], plan, iterations, error
                alive[k] = False
        if not alive.all():
            active = active[alive]
            if active.size:
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
            cost is empty or not finite.
        NumericalOverflow: ``-cost/lam`` is not finite (lam too small
            for the cost).
    """
    config = config or SinkhornConfig()
    cost = _check_cost(cost)
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    _check_marginals(cost, mu, nu)

    rule = _Rule.on(cost, mu, nu, config.lam)
    ((_, plan, iterations, error),) = _stops(rule, [0], config)
    support = None if rule.pattern is None else rule.pattern[:2]
    # The transport cost is transport_cost's products and sum, formed in
    # the rule's ``work``, so no m x n array is allocated: with a dense
    # final kernel the plan is a new array and ``work`` is free; with a
    # sparse one the plan is ``work``, so it is written again after,
    # whole: off the support, 0 times a negative cost left -0.0. Both are
    # in C order, as numpy allocates ``plan * cost`` for any cost's
    # order, so the sum's bits are the same. The rule is then freed,
    # before the checks of the plan allocate temporaries.
    cost_of_plan = float(np.multiply(plan, cost, out=rule.work).sum())
    if support is not None:
        plan = rule.plan()
    del rule
    # The column update pins total mass to 1 up to float residue, so the
    # Coupling mass invariant holds without renormalizing (renormalizing
    # would break bit-equality with the unrolled gradient path). The
    # Coupling adopts the plan, which may be the rule's ``work``, and
    # copies the marginals, which are the caller's.
    coupling = _adopt(Coupling, values=plan, row_marginal=mu.copy(), col_marginal=nu.copy())
    result = SinkhornResult(
        coupling=coupling,
        iterations=iterations,
        final_marginal_error=error,
        converged=error <= config.marginal_tolerance,
        transport_cost=cost_of_plan,
    )
    # A private attribute, not a field: the rows and columns, row-major,
    # outside which the plan is zero, while its final kernel held a
    # pattern, else None. The metrics aggregate the plan over them alone.
    object.__setattr__(result, "_support", support)
    return result


class BatchResult(NamedTuple):
    """Per-problem outcomes of :func:`batched_sinkhorn`, one entry per cost."""

    transport_cost: np.ndarray
    iterations: np.ndarray
    final_marginal_error: np.ndarray
    converged: np.ndarray


def batched_sinkhorn(costs, config: SinkhornConfig, source: np.ndarray | None = None) -> BatchResult:
    """Solve entropic OT on uniform marginals for each 2-D cost, in batches.

    Problems of similar shape are solved as one batch (see
    :func:`_batches`) in one run of :func:`sinkhorn`'s driver: the
    matvecs run on the batch's padded stack and everything else per
    problem (see :class:`_Batch`). Each problem stops when its own true
    marginal error meets the tolerance and is then dropped from its
    batch, so it takes the steps, absorptions and stopping iteration of
    :func:`sinkhorn` on its cost alone, and its values equal that
    solve's to the bit, sparse or dense.

    A batch holds the costs of a list as they are, with no copy. With
    ``source``, each entry of ``costs`` is a pair (rows, cols) of
    non-empty index arrays, and its cost is the block
    ``source[np.ix_(rows, cols)]`` (jc-otce's class pairs of the sample
    cost): each is gathered once, into its batch's store, and its
    transport cost is read from there. The source is checked once, whole.

    Raises:
        DimensionMismatch: a cost, or ``source``, is not 2-D, empty or
            not finite.
        NumericalOverflow: as in :func:`sinkhorn`.
    """
    if source is None:
        costs = [_check_cost(cost) for cost in costs]
        shapes = [cost.shape for cost in costs]
    else:
        source = _check_cost(source)
        shapes = [(rows.size, cols.size) for rows, cols in costs]
    count = len(costs)
    result = BatchResult(
        np.empty(count), np.empty(count, dtype=np.intp), np.empty(count), np.empty(count, dtype=bool)
    )
    for batch in _batches(shapes):
        rule = _Batch([costs[b] for b in batch], config.lam, source)
        held = dict(zip(batch, rule.costs))
        for b, plan, iterations, error in _stops(rule, batch, config):
            result.transport_cost[b] = transport_cost(plan, held[b])
            result.iterations[b] = iterations
            result.final_marginal_error[b] = error
            result.converged[b] = error <= config.marginal_tolerance
        # The stacks and the gathered costs are freed before the next batch.
        del rule, held
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


class _Taped(_Batch):
    """The batch, taping what the reverse of each half-step needs.

    ``tape`` holds one record (epochs, F, G, u, v) of the stacks after
    each half-step, 2K of them for K steps: a row half at each even
    index, a column half at each odd one. The epochs are the problems'
    absorption counts, so each names the kernel that its problem's F and
    G build; that kernel times u v^T, over mu or nu, is the half-step's
    softmax, kept, folded (to rounding) or redone. The empty kernel of
    epoch 0 holds no half-step (see _Rule's start), so a problem's first
    record is of epoch 1. A record holds the stacks themselves: an
    absorption writes into copies of them.
    """

    _SHARED = ("F", "G", "u", "v", "absorptions")

    def __init__(self, *args):
        super().__init__(*args)
        self.tape = []

    def step(self) -> None:
        # ``before`` is the row half's record.
        _Rule.step(self)
        self.tape += self.before, (self.absorptions, self.F, self.G, self.u, self.v)

    def pullback(self, plans: list, dplans: list) -> list:
        """Each problem's d(loss)/d(cost) from its d(loss)/d(plan), walking
        the taped steps back.

        A half-step's softmax is its epoch's kernel times u v^T, over mu
        (row half) or nu (column half), so its adjoints are one matvec on
        that kernel, and its term of dkernel is the kernel times a
        rank-one product. The matvecs are one einsum each over a padded
        stack of the problems' kernels, each of its own epoch. Both sum in
        sequence (the row one because it reads its adjoint as a strided
        column of the factors below), so the zero padding adds exact zeros
        and each problem's bits are those of a batch of it alone. A problem's
        terms of dkernel are collected per epoch and added once, when the
        walk leaves the epoch; each earlier epoch's kernel is rebuilt once,
        as its absorption built it, into the walk's own stack. No
        half-step runs an exp of its own.
        """
        tape = self.tape
        store = np.zeros(self.u.shape + self.v.shape[1:]) if self.work is None else self.work.copy()
        for part, slice_ in zip(self.parts, store):
            _scatter(part, slice_)
        kernels = [store[p, :m, :n] for p, (m, n) in enumerate(self.shapes)]
        neg_mu, neg_nu = -self.mu, -self.nu
        # The rank-one factors of dkernel, column k for tape[k]; problem
        # p's held epoch has its terms in the columns from k + 1 up to
        # ends[p].
        rows = np.empty(self.mu.shape + (len(tape),))
        cols = np.empty(self.nu.shape + (len(tape),))
        ends = [len(tape)] * len(kernels)
        seen = tape[-1][0]
        held = seen.copy()
        df, dg = np.zeros_like(self.mu), np.zeros_like(self.nu)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # plan = exp(kernel + f + g): one product serves all three adjoints.
            dkernels = [dplan * plan for plan, dplan in zip(plans, dplans)]
            for p, dkernel in enumerate(dkernels):
                m, n = dkernel.shape
                df[p, :m], dg[p, :n] = dkernel.sum(axis=1), dkernel.sum(axis=0)
            for k in range(len(tape) - 1, -1, -1):
                epochs, F, G, u, v = tape[k]
                # The epochs change only by an absorption, which copies them.
                if epochs is not seen:
                    seen = epochs
                    for p in np.flatnonzero(epochs != held):
                        m, n = self.shapes[p]
                        dkernels[p] += _rank_sum(
                            rows[p, :m, k + 1:ends[p]], cols[p, :n, k + 1:ends[p]], kernels[p]
                        )
                        rule = self.problem(p)
                        _scatter(rule._build(F[p, :m], G[p, :n], kernels[p]), kernels[p])
                        held[p], ends[p] = epochs[p], k + 1
                # The products and sums are taken in place: t *= u gives
                # the bits of u * t, and t += df those of df + t.
                if k % 2:
                    # soft = K u v^T / nu: dkernel gets K u (-v dg / nu)^T.
                    # b is read as a strided column of cols: on it the
                    # einsum sums each row in sequence, on a contiguous
                    # array in another order, which would move the
                    # gradient's bits. It is formed contiguous, where the
                    # ufuncs are faster, and copied in.
                    b = cols[..., k]
                    b[...] = dg * v / neg_nu
                    rows[..., k] = u
                    t = np.einsum(self._KV, store, b)
                    t *= u
                    t += df
                    df = t
                else:
                    # soft = K u v^T / mu: dkernel gets K (-u df / mu) v^T.
                    a = rows[..., k]
                    a[...] = df * u / neg_mu
                    cols[..., k] = v
                    dg = np.einsum(self._KTU, store, a)
                    dg *= v
                    # The row half overwrites f: df is zero.
                    df = 0.0
            for p, (dkernel, (m, n)) in enumerate(zip(dkernels, self.shapes)):
                dkernel += _rank_sum(rows[p, :m, :ends[p]], cols[p, :n, :ends[p]], kernels[p])
                dkernel *= self.scale
            return dkernels


def _rank_sum(rows: np.ndarray, cols: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """kernel times the sum over t of the outer products rows[:, t] cols[:, t]^T."""
    return np.einsum("it,jt->ij", rows, cols) * kernel


def _scatter(pattern, out: np.ndarray) -> np.ndarray:
    """``out`` as the dense kernel whose nonzeros ``pattern`` holds; with
    no pattern, ``out`` holds the kernel already."""
    if pattern is not None:
        rows, cols, data = pattern
        out.fill(0.0)
        out[rows, cols] = data
    return out


def unrolled_sinkhorn(costs: list[np.ndarray], config: SinkhornConfig, iterations: int):
    """Exactly ``iterations`` update pairs on each cost's uniform marginals,
    stacked, and their reverse.

    The forward replays the steps of :func:`sinkhorn` with no early
    stopping (``config``'s iteration cap and tolerance do not apply), as
    one :class:`_Taped` batch, so each plan equals the solver's plan on
    its cost after that many iterations, to the bit. Returns ``(plans,
    pullback)``: ``pullback(dplans)`` maps each d(loss)/d(plan) to
    d(loss)/d(cost) by walking the same steps backwards, each as matvecs
    on the kernel of its epoch; each problem's are those of a batch of
    it alone. Non-finite adjoints are left for the caller to detect.

    Raises:
        NumericalOverflow: as in :func:`sinkhorn`, for any of the costs.
    """
    rule = _Taped(costs, config.lam)
    # The steps' error state (see the module docstring).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(iterations):
            rule.step()
    plans = [rule.problem(k).plan() for k in range(len(costs))]
    # The closure holds the rule, which holds nothing of the closure's,
    # so both are freed by reference counting once the caller drops it.
    return plans, lambda dplans: rule.pullback(plans, dplans)


def exact_ot_bruteforce(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact OT value for a square cost with uniform marginals, n <= 8.

    With uniform marginals the unregularized optimum is attained at a
    permutation matrix, so full enumeration is exact:
    value = min over permutations of mean(cost[i, sigma(i)]).
    Returns the value and the first permutation (in lexicographic order)
    attaining it.

    Raises:
        DimensionMismatch: cost is not square, empty or not finite.
        TooLarge: n > 8.
    """
    cost = _check_cost(cost)
    if cost.shape[0] != cost.shape[1]:
        raise DimensionMismatch(f"cost must be square, got {cost.shape}")
    n = cost.shape[0]
    if n > 8:
        raise TooLarge(f"brute-force oracle limited to n <= 8, got {n}")
    best = np.inf
    best_perm: tuple[int, ...] = tuple(range(n))
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        value = cost[rows, perm].sum()
        if value < best:
            best = value
            best_perm = perm
    return float(best / n), best_perm
