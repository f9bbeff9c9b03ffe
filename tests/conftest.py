from typing import NamedTuple

import numpy as np
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
    pass, as canonically sorted entries: the reference for
    groups.involutions, which reads them off the fixed-point scan
    instead."""
    return group8.entries[kn.involution_mask(ctx8, group8.entries)]


def all_vecs(q):
    idx = np.arange(q ** 4)
    return np.stack([(idx // q ** 3) % q, (idx // q ** 2) % q,
                     (idx // q) % q, idx % q], axis=1).astype(np.uint8)


def bullet_np(mul, frob, a, b):
    """wilson.bullet on (n, 4) batches of vectors."""
    at, bt = frob[a], frob[b]
    return np.stack([
        mul[at[:, 1], bt[:, 3]] ^ mul[at[:, 3], bt[:, 1]],
        mul[at[:, 0], bt[:, 1]] ^ mul[at[:, 1], bt[:, 0]],
        mul[at[:, 2], bt[:, 3]] ^ mul[at[:, 3], bt[:, 2]],
        mul[at[:, 0], bt[:, 2]] ^ mul[at[:, 2], bt[:, 0]],
    ], axis=1)


class BulletSweep(NamedTuple):
    symmetric: bool   # u . v == v . u on all 16M pairs
    semilinear: bool  # (c u) . v == c^t (u . v) on all 134M triples


@pytest.fixture(scope="session")
def bullet_sweep8(ctx8):
    """The exhaustive bullet sweep at q = 8, run once per session for
    criterion 9 and test_wilson: every vector pair, every scalar,
    vectorised in blocks of 64 left vectors."""
    mul, frob, _ = kn.field_tables(ctx8)
    vecs = all_vecs(8)
    n = len(vecs)
    sym_ok = semi_ok = True
    for lo in range(0, n, 64):
        ublock = np.repeat(vecs[lo:lo + 64], n, axis=0)
        vblock = np.tile(vecs, (64, 1))
        uv = bullet_np(mul, frob, ublock, vblock)
        sym_ok &= np.array_equal(uv, bullet_np(mul, frob, vblock, ublock))
        for c in range(8):
            lhs = bullet_np(mul, frob, mul[np.uint8(c), ublock], vblock)
            semi_ok &= np.array_equal(lhs, mul[frob[c], uv])
    return BulletSweep(bool(sym_ok), bool(semi_ok))


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
