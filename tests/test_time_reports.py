"""The verdict of ``tests/time_reports.py`` on either side of each of its edges."""

import pytest

from time_reports import verdict

BOUND = 0.25        # the reports_per_s bound: slower beyond a median ratio of 4/3


@pytest.mark.parametrize("ratios,want", [
    ([0.8] * 10, "gain"),
    ([0.8] * 9 + [1.2], "gain"),                            # 9 of 10 pairs won
    ([0.8] * 8 + [1.2] * 2, "unresolved"),                  # 8 of 10
    ([0.96] * 3 + [0.97] * 4 + [0.98] * 3, "gain"),         # 1 - median 0.03 > IQR 0.02
    ([0.95] * 3 + [0.97] * 4 + [0.99] * 3, "unresolved"),   # 0.03 < IQR 0.04
    ([1.33] * 10, "unresolved"),
    ([1.34] * 10, "slower beyond the bound"),
])
def test_verdict_edges(ratios, want):
    assert verdict(ratios, BOUND) == want
