"""Shared test configuration.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized property-test profile
with no per-example deadline, so CI runs repeat exactly and do not fail
on a slow runner.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
