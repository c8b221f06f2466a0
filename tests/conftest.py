import contextlib
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# a larger example budget for property tests that leave it to the profile:
# `pytest --hypothesis-profile=ci`; tier-1 runs the default profile
settings.register_profile("ci", max_examples=2000)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Once a test has failed, import the module Hypothesis reports a falsifying
    example through, with its import-time DeprecationWarning ignored: under a
    test's ``filterwarnings("error")`` that warning would end the session in
    INTERNALERROR instead of the report.  Only a failing session pays the import."""
    if (yield).get_result().failed:
        with warnings.catch_warnings(), contextlib.suppress(ImportError):
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401
