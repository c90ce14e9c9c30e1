"""Acceptance suite: one test per criterion, each printing its pass/fail line.

The checks themselves live in pulsebeam.verification so that the CLI
`verify` subcommand and this module exercise the exact same code.
"""

import numpy as np
import pytest

from pulsebeam.verification import ACCEPTANCE_CHECKS, _unit_vector, _unit_vectors

# Detail strings of the seeded sampling checks, as printed by the
# point-by-point implementation they replaced.  A change to a seed, a
# sample count or the draw order changes them.
PINNED_DETAILS = {
    "1": "max rel residual: squares 4.69e-16, product 5.97e-16 over 100000 samples",
    "2": "bound slack min 0 (worst normalized excess p -1.0e-08, q -1.4e-05); "
    "on-axis equality residual 4.90e-16; oblique strictness ok",
    "3": "max surface-identity residual 6.04e-14 over 10000 regular points",
    "7": "min normalized slack 1.11e-05 over 10000 links; bandwidth chain ok; "
    "parallel equality residual 2.28e-16",
}


@pytest.mark.parametrize(
    "ident,name,func", ACCEPTANCE_CHECKS, ids=[f"{i}-{n}" for i, n, _ in ACCEPTANCE_CHECKS]
)
def test_acceptance_criterion(ident, name, func):
    result = func()
    flag = "PASS" if result.passed else "FAIL"
    print(f"[{result.ident:>2}] {result.name}: {flag} ({result.detail})")
    assert result.passed, f"criterion {ident} ({name}) failed: {result.detail}"
    if ident in PINNED_DETAILS:
        assert result.detail == PINNED_DETAILS[ident], "the check's draws or counts changed"


def test_single_unit_vector_draw_matches_the_array_draw():
    old, new = np.random.default_rng(20260803), np.random.default_rng(20260803)
    for _ in range(5_000):
        want = _unit_vectors(old, 1)[0]
        assert np.array_equal(np.array(_unit_vector(new)).view(np.int64), want.view(np.int64))
