"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes of that call): what it allocates over what was already held."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
