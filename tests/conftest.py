import sys
from pathlib import Path

from hypothesis import settings

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# a larger example budget for property tests that leave it to the profile:
# `pytest --hypothesis-profile=ci`; tier-1 runs the default profile
settings.register_profile("ci", max_examples=2000)
