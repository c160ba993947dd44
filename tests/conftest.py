"""Shared pytest plumbing.

The acceptance suite records one verdict line per criterion; the
terminal summary reprints them all after the run so the pass/fail
status of every criterion is visible regardless of capture settings.
``dense_a_h`` is the grid-value matrix A_h written out entry by entry,
the reference that the lmm, discovery and training tests share.
"""
import numpy as np
import pytest

from kanlmm import lmm

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _dense_a_h(sch: lmm.LmmScheme, n1: int) -> np.ndarray:
    """A_h from alpha/beta bookkeeping: identity rows first, then row
    n = steps..n1 with beta_m in column n - m - r."""
    w = lmm.index_window(sch, n1)
    a = np.zeros((w.tau, w.tau))
    a[: w.aux_count, : w.aux_count] = np.eye(w.aux_count)
    for row, n in enumerate(range(sch.steps, n1 + 1), start=w.aux_count):
        for mm in range(sch.steps + 1):
            if sch.beta[mm] != 0.0:
                a[row, n - mm - w.r] = sch.beta[mm]
    return a


@pytest.fixture(scope="session")
def dense_a_h():
    return _dense_a_h
