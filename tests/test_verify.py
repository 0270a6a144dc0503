"""Every named invariant of ``verify.CHECKS``, at the defaults of ``clusterkit verify``.

Run one check with ``pytest tests/test_verify.py -k <name>``.
"""

import pytest

from clusterkit import verify


@pytest.mark.parametrize("check", [fn for _, _, fn in verify.CHECKS],
                         ids=[name for name, _, _ in verify.CHECKS])
def test_check(check):
    ok, detail = check(verify.VerifyContext())
    assert ok, detail
