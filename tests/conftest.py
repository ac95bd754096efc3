"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run and every Python: the
# draws are derived from each test, no example database carries failures
# from run to run, and no per-example deadline ties a verdict to the host's
# speed.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
