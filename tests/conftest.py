"""Hypothesis settings for the whole suite.

Under ``CI`` (which GitHub Actions sets) every property test runs the
``ci`` profile: examples derived from each test's name instead of drawn
(``derandomize``), no example database, and the reproduction blob printed
with a failure.  A red CI run then reproduces locally with ``CI=1``.  Example
counts stay those of each test's own ``@settings``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
