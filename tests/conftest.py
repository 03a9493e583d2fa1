"""Test-session settings shared by every test module.

Hypothesis draws the same examples on every run (derandomize) and keeps
no example database, so a run does not depend on the runs before it. A
test's own @settings (max_examples, deadline) still apply on top.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
