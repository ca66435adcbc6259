"""Method-name contracts that older callers still rely on.

``METHODS`` keeps its shape (``"auto"`` first, exported from
:mod:`repro.pipeline`) and an unknown method name fails with the same
message through :func:`repro.plan`, the one planning entry point.
"""

import pytest

import repro
from repro.pipeline import METHODS

from tests.conftest import random_instance


def test_methods_tuple_still_starts_with_auto():
    assert METHODS[0] == "auto"


def test_wrapper_unknown_method_message():
    with pytest.raises(ValueError, match="unknown method"):
        repro.plan(random_instance(9, 30, seed=3), method="nope")
