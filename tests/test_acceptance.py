"""Acceptance gate: each criterion clause printed pass/fail at its tolerance.

The three clauses whose published reference values are themselves
defective (quartic band at m=2; exp-kernel ratio table at n=7; the
saddle-derivative ratio column for k >= 1) are strict xfails with the
analysis in their reports; everything else must pass.
"""

import math
import os
import signal
import time
from itertools import combinations

import numpy as np
import pytest

from qmm import acceptance, numkit, partition, polytope
from qmm.acceptance import CRITERIA, SUITES, CheckResult, _sigmas, check_5, check_11, run_acceptance
from qmm.cli import main
from qmm.config import RunConfig
from qmm.counting import InstanceTooLarge
from qmm.orthopoly import QuasiDefiniteError


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


def test_rqmc_clauses_share_one_lattice(monkeypatch):
    built = []

    class Counted(numkit._LatticeNormals):
        def __init__(self, dim):
            built.append(dim)
            super().__init__(dim)

    monkeypatch.setattr(numkit, "_LatticeNormals", Counted)
    results = check_11(RunConfig())
    assert built == [4]
    assert all(r.passed for r in results if "RQMC" in r.clause)


# ---------------------------------------------------------------------------
# the criteria run on forked workers


def assert_no_child_left():
    # raises only once no child, running or zombie, is left to reap
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 3], ids=["in-process", "forked"])
@pytest.mark.parametrize("suite", [None, "count", "asym"], ids=["gate", "count", "asym"])
def test_workers_give_the_serial_results(monkeypatch, suite, workers):
    # 3 workers fork on any host; "asym" has one criterion and forks nothing
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: workers)
    cfg = RunConfig()
    numbers = sorted(CRITERIA) if suite is None else SUITES[suite]
    assert run_acceptance(cfg, suite) == [r for n in numbers for r in CRITERIA[n](cfg)]
    assert_no_child_left()


def test_more_workers_than_cores_run_each_criterion_once(monkeypatch):
    # a claim lost or made twice would drop or repeat a criterion
    def fake(num):
        return lambda cfg: [CheckResult(num, "ran", "", True, "")]

    for num in CRITERIA:
        monkeypatch.setitem(CRITERIA, num, fake(num))
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 8)
    for _ in range(20):
        assert [r.criterion for r in run_acceptance(RunConfig())] == sorted(CRITERIA)
    assert_no_child_left()


def _raises(exc, delay=0.0):
    def criterion(cfg):
        time.sleep(delay)
        raise exc

    return criterion


@pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "forked"])
def test_lowest_raising_criterion_wins(capsys, monkeypatch, workers):
    # criterion 5 raises after criterion 12 has, as a serial run meets it first
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: workers)
    monkeypatch.setitem(CRITERIA, 5, _raises(QuasiDefiniteError("criterion 5 broke"), delay=0.2))
    monkeypatch.setitem(CRITERIA, 12, _raises(InstanceTooLarge("criterion 12 broke")))
    with pytest.raises(QuasiDefiniteError) as raised:
        run_acceptance(RunConfig())
    assert str(raised.value) == "criterion 5 broke"
    assert_no_child_left()
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: criterion 5 broke\n"
    assert_no_child_left()


def _wait_for(marker):
    deadline = time.monotonic() + 30
    while not marker.exists():
        assert time.monotonic() < deadline, f"{marker.name} never appeared"
        time.sleep(0.01)


def _fork_side(marker, in_worker, in_caller):
    """A criterion that runs `in_worker` in a forked worker; the caller's copy
    waits until a worker has claimed one, then runs `in_caller`."""
    caller = os.getpid()

    def criterion(cfg):
        if os.getpid() != caller:
            marker.touch()
            return in_worker()
        _wait_for(marker)
        return in_caller()

    return criterion


def test_lower_criterion_raising_later_in_a_worker_wins(monkeypatch, tmp_path):
    # the caller's first criterion passes once a worker holds the next one;
    # the caller raises on the third, before the worker raises on its lower one
    caller, claimed, raised = os.getpid(), tmp_path / "claimed", tmp_path / "raised"
    calls = []

    def fake(num):
        def criterion(cfg):
            if os.getpid() != caller:
                claimed.touch()
                _wait_for(raised)
                raise QuasiDefiniteError(f"criterion {num} broke")
            calls.append(num)
            if len(calls) == 1:
                _wait_for(claimed)
                return []
            raised.touch()
            raise InstanceTooLarge(f"criterion {num} broke")

        return criterion

    for num in SUITES["count"]:
        monkeypatch.setitem(CRITERIA, num, fake(num))
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    with pytest.raises(QuasiDefiniteError) as caught:
        run_acceptance(RunConfig(), "count")
    assert str(caught.value) in ("criterion 1 broke", "criterion 2 broke")
    assert_no_child_left()


def test_killed_worker_is_one_error_line(capsys, monkeypatch, tmp_path):
    die = _fork_side(tmp_path / "claimed", lambda: os.kill(os.getpid(), signal.SIGKILL), list)
    for num in SUITES["count"]:
        monkeypatch.setitem(CRITERIA, num, die)
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    assert main(["verify", "--suite", "count"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: criterion ")
    assert err[0].endswith(" has no result: a worker was killed by SIGKILL")
    assert_no_child_left()


def test_interrupted_caller_stops_its_workers(monkeypatch, tmp_path):
    def interrupt():
        raise KeyboardInterrupt

    stall = _fork_side(tmp_path / "claimed", lambda: time.sleep(60), interrupt)
    for num in SUITES["count"]:
        monkeypatch.setitem(CRITERIA, num, stall)
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_acceptance(RunConfig(), "count")
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_failed_fork_runs_on_the_workers_started(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = RunConfig()
    assert run_acceptance(cfg, "count") == [r for n in SUITES["count"] for r in CRITERIA[n](cfg)]
