import tracemalloc

import pytest


def _trace(fn) -> tuple[int, int]:
    """Call fn() under tracemalloc: (peak, retained) bytes, the peak of the
    memory Python allocated during the call and what of it is still
    allocated once fn returns, its result included."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 - held so that retained counts it
        current, peak = tracemalloc.get_traced_memory()
        return peak, current
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak_bytes():
    """traced_peak_bytes(fn): call fn() and return the peak of the memory
    Python allocated during the call (tracemalloc), in bytes."""
    return lambda fn: _trace(fn)[0]


@pytest.fixture
def traced_peak_and_retained_bytes():
    """traced_peak_and_retained_bytes(fn): call fn() and return (peak,
    retained) in bytes: the peak of the memory Python allocated during the
    call, and what of it fn's result and anything else still hold once fn
    returns (tracemalloc)."""
    return _trace
