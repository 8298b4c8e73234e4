"""Acceptance gate: each criterion clause printed pass/fail at its tolerance.

The three clauses whose published reference values are themselves
defective (quartic band at m=2; exp-kernel ratio table at n=7; the
saddle-derivative ratio column for k >= 1) are strict xfails with the
analysis in their reports; everything else must pass.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from qmm import partition, polytope
from qmm.acceptance import _sigmas, check_5, check_11, run_acceptance
from qmm.config import RunConfig


@pytest.fixture(scope="module")
def results():
    out = run_acceptance(RunConfig())
    print()
    for r in out:
        print(f"[criterion {r.criterion:>2}] {r.status:<17} {r.clause} | {r.detail}")
    return out


def test_all_regular_clauses_pass(results):
    bad = [r for r in results if not r.passed and not r.known_issue]
    assert not bad, "failed clauses: " + "; ".join(
        f"[{r.criterion}] {r.clause}: {r.detail}" for r in bad
    )


def test_every_criterion_ran(results):
    assert {r.criterion for r in results} == set(range(1, 14))


@pytest.mark.xfail(
    strict=True,
    reason="R_2 = 0.40168 < sqrt(2/12): the published band is violated at m=2 "
    "by the published table itself",
)
def test_band_clause_as_stated(results):
    clause = next(r for r in results if r.criterion == 7 and "band" in r.clause)
    assert clause.passed


@pytest.mark.xfail(
    strict=True,
    reason="printed n=7 truncated-series determinant (2.11e-55) contradicts the "
    "exact identity det R = Delta^2/prod m! = 1.911e-55",
)
def test_expdet_n7_clause_as_stated(results):
    clause = next(
        r for r in results if r.criterion == 9 and r.clause.endswith("n=7")
    )
    assert clause.passed


@pytest.mark.xfail(
    strict=True,
    reason="printed saddle column for k >= 1 not reproducible: exact (i d/da)^k "
    "derivatives converge to ratio 1.00, printed column grows to 1.08",
)
def test_pearcey_ratio_clause_as_stated(results):
    clause = next(
        r for r in results if r.criterion == 10 and "ratios" in r.clause
    )
    assert clause.passed


def _trace_x4_without_q(n, diag, re, im):
    # Tr(P^2) alone, from dense complex matrices: X^2 = P + iQ, P = Re X^2
    # diag, re and im hold one row per component
    x = np.zeros((diag.shape[1], n, n), dtype=complex)
    x[:, range(n), range(n)] = diag.T
    for idx, (k, l) in enumerate(combinations(range(n), 2)):
        x[:, k, l] = re[idx] + 1j * im[idx]
        x[:, l, k] = re[idx] - 1j * im[idx]
    p = (x @ x).real
    return (p * p).sum(axis=(1, 2))


@pytest.mark.parametrize(
    "mutant",
    [lambda orig: lambda *a: 1.05 * orig(*a), lambda orig: _trace_x4_without_q],
    ids=["weight exp(-1.05 g Tr X^4)", "Q = AB + BA dropped"],
)
def test_matrix_clause_fails_on_a_wrong_weight(monkeypatch, mutant):
    monkeypatch.setattr(partition, "_trace_x4", mutant(partition._trace_x4))
    clause = next(r for r in check_11(RunConfig()) if "matrix" in r.clause)
    assert not clause.passed and not clause.known_issue, clause.detail


def _n3_indicator_without(j):
    # the N=3 row-sum form with its s_j >= 0 test dropped
    def mutant(u):
        u = np.asarray(u, dtype=float)
        s = u.sum(axis=0) / 2.0 - u
        return np.where(np.delete(s, j, axis=0).min(axis=0) >= 0.0, 1.0, 0.0)

    return mutant


@pytest.mark.parametrize("j", [0, 1, 2], ids=["s_1", "s_2", "s_3"])
def test_grid_clause_fails_without_one_feasibility_test(monkeypatch, j):
    monkeypatch.setattr(polytope, "_exact_volume_n3_rowsum", _n3_indicator_without(j))
    clause = next(r for r in check_5(RunConfig()) if "N=3" in r.clause)
    assert not clause.passed and not clause.known_issue, clause.detail


def test_n4_clause_fails_on_a_scaled_volume(monkeypatch):
    exact = polytope.exact_volume_n4
    monkeypatch.setattr(polytope, "exact_volume_n4", lambda spec: 1.05 * exact(spec))
    clause = next(r for r in check_5(RunConfig()) if "N=4" in r.clause)
    assert not clause.passed and not clause.known_issue, clause.detail


def test_zero_stderr_agrees_only_at_equality():
    assert _sigmas(0.25, 0.25, 0.0) == 0.0
    assert _sigmas(0.25, 0.2500001, 0.0) == math.inf
    assert _sigmas(0.25, 0.2, 0.01) == pytest.approx(5.0)


@pytest.mark.parametrize("gap, passed", [(0.0, True), (1e-9, False)])
def test_n4_clause_with_zero_stderr(monkeypatch, gap, passed):
    # a sampler that reports stderr 0 passes only where it hits the formula
    exact = polytope.exact_volume_n4
    monkeypatch.setattr(polytope, "mc_volume", lambda spec, samples, seed: (exact(spec) + gap, 0.0))
    clause = next(r for r in check_5(RunConfig()) if "N=4" in r.clause)
    assert clause.passed == passed, clause.detail


def test_haar_clause_with_zero_stderr(monkeypatch):
    value = partition.hciz_value((0.0, 1.0), (0.0, 1.0), 1.0)
    monkeypatch.setattr(partition, "hciz_haar_mc2", lambda *args, seed: (value * (1 + 1e-9), 0.0))
    clause = next(r for r in check_11(RunConfig()) if "Haar" in r.clause)
    assert not clause.passed and "inf sigma" in clause.detail, clause.detail
