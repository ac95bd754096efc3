"""Settings and helpers shared by every test module."""

import tracemalloc

from hypothesis import settings

# Property tests draw the same examples on every run and every Python: the
# draws are derived from each test, no example database carries failures
# from run to run, and no per-example deadline ties a verdict to the host's
# speed.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def traced_peak(fn):
    """(peak traced bytes of calling fn() above the baseline, fn's return value).

    Only what is allocated while tracing counts: inputs, and caches such as
    a grid's wavenumbers that fn would build, are allocated before the call.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = fn()
        return tracemalloc.get_traced_memory()[1] - base, value
    finally:
        tracemalloc.stop()
