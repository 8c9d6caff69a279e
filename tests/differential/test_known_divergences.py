"""Pinned live wrong answers of the differential oracle.

Three generated conditional cases (the ones ``python -m repro fuzz``
reports at the default query mix) still diverge on every compiled
backend configuration: on some rows the kernels return ``0.0`` or
``-2.0`` where the reference has ``-2.579``, ``-2.280`` or ``-2.494``.
The kernels compute log P(Q | E) as the difference of two heads, and
on these rows the heads cancel. Each test asserts that the oracle finds
zero divergences and is marked strict-xfail, so the suite stays green
while the bug is live and turns red the moment a fix makes a case
pass; then the marker comes off.
"""

import pytest

from repro.testing.generators import QUERY_CASE_KINDS, CaseGenerator
from repro.testing.oracle import DifferentialOracle

#: (seed, index) of each known divergent case, generated with the
#: ``repro fuzz`` defaults (all five query kinds, round-robin).
KNOWN_CASES = [(0, 8), (1, 8), (1, 23)]

_IDS = [f"seed{seed}-index{index}" for seed, index in KNOWN_CASES]


@pytest.mark.xfail(
    strict=True,
    reason="the two heads of log P(Q | E) cancel: every compiled config "
    "returns a wrong conditional on some rows",
)
@pytest.mark.parametrize("seed,index", KNOWN_CASES, ids=_IDS)
def test_conditional_case_matches_reference(seed, index):
    case = CaseGenerator(seed=seed, query_kinds=QUERY_CASE_KINDS).case(index)
    oracle = DifferentialOracle(shrink=False, dump_reproducers=False)
    assert oracle.check_case(case) == []
