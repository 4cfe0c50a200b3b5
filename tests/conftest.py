"""Suite-wide pytest configuration.

The property suites draw their examples from a seed derived from each
test's source, not from the clock or a local example database, so a
run is reproducible from the commit alone.  A counter-example found by
other means is pinned as an explicit test next to its property.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")
