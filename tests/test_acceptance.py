"""The acceptance table `nilrep.selftest.CHECKS`, one item per check."""

import pytest

from nilrep.selftest import CHECKS


@pytest.mark.parametrize("check", [c for _, c in CHECKS],
                         ids=[label for label, _ in CHECKS])
def test_check(check):
    assert check()
