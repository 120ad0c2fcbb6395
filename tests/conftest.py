"""Hypothesis profiles for the test suite.

`ci` replays the same examples on every run and has no deadline, so a
failing property reproduces locally and a loaded runner cannot make one
flaky:

    python -m pytest -q --hypothesis-profile=ci
"""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
