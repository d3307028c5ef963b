"""Each verification case run for real, as ``copulakit verify all`` runs it."""

import pytest

from copulakit import verify

# the two 20-seed scans of 10^4-point samples take about 20 s; verify all runs them
SLOW = {"operator-discontinuity", "operator-nonoptimality"}


@pytest.mark.parametrize("case_id", [c for c in verify.CASES if c not in SLOW])
def test_case_passes(case_id):
    case = verify.run_case(case_id)
    assert case.case_id == case_id and case.passed, case.computed
