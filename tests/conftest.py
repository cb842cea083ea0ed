import ctypes
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest


def _openblas_runtime_configuration():
    """The configuration string of the OpenBLAS bundled with numpy, asked of
    the library itself, or None when numpy bundles no scipy-openblas. A
    DYNAMIC_ARCH build names in it the kernel set it chose for this CPU,
    where the build string names the build machine's."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            get_config = ctypes.CDLL(str(path)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.restype = ctypes.c_char_p
        return get_config().decode()
    return None


def pytest_report_header(config):
    """The BLAS numpy calls, the kernel it runs and its thread setting: the
    frontend's bit-exact tests pin how this BLAS rounds a product (see
    features._log_mel)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _openblas_runtime_configuration()
    configuration = (
        f"blas build configuration: {blas.get('openblas configuration')}"
        if runtime is None
        else f"blas runtime configuration: {runtime}"
    )
    return [
        f"blas: {blas.get('name')} {blas.get('version')}",
        configuration,
        f"OPENBLAS_NUM_THREADS: {os.environ.get('OPENBLAS_NUM_THREADS')}",
    ]


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
