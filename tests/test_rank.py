import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from otce import ScoredPair, kendall_tau, rank_sources, spearman_rho
from otce.errors import DegenerateInput, EmptyInput, LengthMismatch, NonFiniteValue


def kendall_brute(acc, trf):
    n = len(acc)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += np.sign(acc[i] - acc[j]) * np.sign(trf[i] - trf[j])
    return 2.0 * total / (n * (n - 1))


def spearman_closed_form(acc, trf):
    # 1 - 6 sum(d^2) / (n (n^2 - 1)), valid without ties
    n = len(acc)
    ra = np.argsort(np.argsort(acc)) + 1
    rt = np.argsort(np.argsort(trf)) + 1
    d = ra - rt
    return 1.0 - 6.0 * float((d * d).sum()) / (n * (n * n - 1))


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_orderings(self):
        assert spearman_rho([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_worked_example(self):
        # ranks (1,2,3) vs (1,3,2): 1 - 6*2/(3*8) = 0.5
        assert spearman_rho([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_ties_use_average_ranks(self):
        # acc ranks (1.5, 1.5, 3); Pearson of ranks, computed by hand
        acc = np.array([1.0, 1.0, 2.0])
        trf = np.array([1.0, 2.0, 3.0])
        ra = np.array([1.5, 1.5, 3.0])
        rt = np.array([1.0, 2.0, 3.0])
        expected = np.corrcoef(ra, rt)[0, 1]
        assert spearman_rho(acc, trf) == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_floats, min_size=3, max_size=40, unique=True))
    def test_tie_free_matches_closed_form(self, acc):
        rng = np.random.default_rng(len(acc))
        trf = rng.permutation(len(acc)).astype(float)
        got = spearman_rho(acc, trf)
        want = spearman_closed_form(np.asarray(acc), trf)
        assert got == pytest.approx(want, abs=1e-12)
        assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=40),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_scipy_rankdata(self, acc, seed):
        # tied acc (few distinct values), untied trf
        assume(len(set(acc)) > 1)
        acc = np.asarray(acc, dtype=np.float64)
        trf = np.random.default_rng(seed).normal(size=acc.shape[0])
        expected = float(np.corrcoef(rankdata(acc), rankdata(trf))[0, 1])
        assert spearman_rho(acc, trf) == expected
        assert spearman_rho(trf, acc) == float(np.corrcoef(rankdata(trf), rankdata(acc))[0, 1])

    def test_monotone_transform_invariance(self, rng):
        acc = rng.normal(size=25)
        trf = rng.normal(size=25)
        base = spearman_rho(acc, trf)
        assert spearman_rho(np.exp(acc), 3 * trf + 7) == pytest.approx(base, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            spearman_rho([1.0], [2.0])
        with pytest.raises(DegenerateInput):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])


class TestKendall:
    def test_identical_orderings(self):
        assert kendall_tau([1, 2, 3], [4, 5, 6]) == 1.0

    def test_reversed_orderings(self):
        assert kendall_tau([1, 2, 3], [6, 5, 4]) == -1.0

    def test_worked_example(self):
        # pairs: (1,2) concordant, (1,3) concordant, (2,3) discordant
        assert kendall_tau([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(
            1 / 3, abs=1e-15
        )

    def test_ties_contribute_zero(self):
        # the tied (0, 1) pair contributes sgn(0) = 0; the other two
        # pairs are concordant, so tau = 2 * 2 / (3 * 2)
        assert kendall_tau([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(
            2 / 3, abs=1e-15
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(finite_floats, min_size=2, max_size=60),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_brute_force_exactly(self, acc, seed):
        rng = np.random.default_rng(seed)
        trf = rng.integers(-5, 5, size=len(acc)).astype(float)
        assert kendall_tau(acc, trf) == kendall_brute(np.asarray(acc), trf)

    def test_monotone_transform_invariance(self, rng):
        acc = rng.normal(size=30)
        trf = rng.normal(size=30)
        assert kendall_tau(acc, trf) == kendall_tau(np.expm1(acc), 10 * trf)


@pytest.mark.parametrize("statistic", [spearman_rho, kendall_tau])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_rejected(statistic, value):
    # A NaN has no rank, and an infinity makes a sign difference NaN.
    with pytest.raises(NonFiniteValue):
        statistic([0.1, 0.5, 0.9], [-0.9, value, -0.1])
    with pytest.raises(NonFiniteValue):
        statistic([0.1, -value, 0.9], [-0.9, 0.5, -0.1])


class TestRankSources:
    def test_singleton(self):
        pairs = [ScoredPair("only", -0.5)]
        assert rank_sources(pairs) == pairs

    def test_tie_broken_by_task_id(self):
        ranked = rank_sources([ScoredPair("b", -0.5), ScoredPair("a", -0.5)])
        assert [p.task_id for p in ranked] == ["a", "b"]

    def test_sortedness_property(self, rng):
        pairs = [ScoredPair(f"t{i:03d}", float(v)) for i, v in enumerate(rng.normal(size=100))]
        ranked = rank_sources(pairs)
        assert sorted(p.task_id for p in ranked) == sorted(p.task_id for p in pairs)
        scores = [p.transferability for p in ranked]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            rank_sources([])

    def test_accuracy_bounds(self):
        with pytest.raises(ValueError):
            ScoredPair("x", -0.1, accuracy=1.5)


def test_import_leaves_scipy_unloaded():
    # importing scipy.stats costs about a second, paid by every CLI call
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, otce, otce.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
