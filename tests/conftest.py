import tracemalloc

import pytest


@pytest.fixture
def traced_peak_bytes():
    """traced_peak_bytes(fn): call fn() and return the peak of the memory
    Python allocated during the call (tracemalloc), in bytes."""

    def measure(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
