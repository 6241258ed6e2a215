"""Shared test configuration.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized property-test profile
with no per-example deadline, so CI runs repeat exactly and do not fail
on a slow runner. ``HYPOTHESIS_PROFILE=ci-seeded`` draws from the seed
given with ``--hypothesis-seed`` instead, with no deadline and no example
database: its draws differ from the derandomized run's, but a run repeats
exactly for one seed.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.register_profile("ci-seeded", derandomize=False, deadline=None,
                              database=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
