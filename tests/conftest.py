"""Shared expensive fixtures: the full-budget pipeline, closed-form
expansion, bracket basis, and comparison report are built once per
session and reused across test modules."""

import pytest

from fwforge.comparator import build_basis, diff_report
from fwforge.eriksen import run_pipeline
from fwforge.ncalg import Budget
from fwforge.stepwise import build_iterative, expand_static


@pytest.fixture(scope="session")
def budget83() -> Budget:
    return Budget(8, 3)


@pytest.fixture(scope="session")
def state83(budget83):
    return run_pipeline(budget83)


@pytest.fixture(scope="session")
def eriksen83(state83):
    return state83.H_FW


@pytest.fixture(scope="session")
def static13_83(budget83):
    return expand_static(build_iterative(), budget83)


@pytest.fixture(scope="session")
def basis83(budget83):
    return build_basis(budget83)


@pytest.fixture(scope="session")
def basis42():
    return build_basis(Budget(4, 2))


@pytest.fixture(scope="session")
def report83(eriksen83, static13_83, budget83):
    return diff_report(eriksen83, static13_83, budget83)
