"""Every named invariant of ``verify.CHECKS``: the fixed suite that ``clusterkit verify`` runs.

Run one check with ``pytest tests/test_verify.py -k <name>``.
"""

import pytest

from clusterkit import verify


@pytest.mark.parametrize("check", [fn for _, _, fn in verify.CHECKS],
                         ids=[name for name, _, _ in verify.CHECKS])
def test_check(check):
    ok, detail = check()
    assert ok, detail
