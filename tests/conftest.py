import pytest

from szverify import groups as gr
from szverify import kernels as kn
from szverify.context import make_context

# Filled in by test_acceptance.py; printed at the end of the run.
_CRITERIA = {}


def record_criterion(n, passed, note=""):
    _CRITERIA[n] = (passed, note)


@pytest.fixture(scope="session")
def ctx8():
    return make_context(1)


@pytest.fixture(scope="session")
def ctx32():
    return make_context(2)


@pytest.fixture(scope="session")
def group8(ctx8):
    return gr.build_suzuki(ctx8)


@pytest.fixture(scope="session")
def involutions8(ctx8, group8):
    """The involutions of Sz(8) from a whole-group kernels.involution_mask
    pass: the reference for groups.involutions, which reads them off
    the fixed-point scan instead."""
    mask = kn.involution_mask(ctx8, group8.entries)
    return [kn.entries_to_mat(row) for row in group8.entries[mask]]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_CRITERIA):
        passed, note = _CRITERIA[n]
        word = "SKIP" if passed is None else ("PASS" if passed else "FAIL")
        line = f"ACCEPTANCE CRITERION {n}: {word}"
        if note:
            line += f"  ({note})"
        terminalreporter.write_line(line)
