"""Shared test settings.

Property tests run a fixed example sequence with no deadline, so the
suite is deterministic and a slow machine cannot fail it.
"""

from hypothesis import settings

settings.register_profile("stem1d", derandomize=True, deadline=None)
settings.load_profile("stem1d")
