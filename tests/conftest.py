import ctypes
import os
import tempfile

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis still caches the constants it reads from source files;
# that cache goes to the system temporary directory, not the checkout.
settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "pdwave-hypothesis"))


@pytest.fixture(scope="session")
def scipy_route():
    """``potential._lapack``'s fallback: dstebz and dtbsv from scipy's capsules, with 32-bit
    ints, as on a numpy whose BLAS lacks the routines (Accelerate, MKL)."""
    from pdwave import potential

    def no_library(*args, **kwargs):
        raise OSError("no library")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ctypes, "CDLL", no_library)
        route = potential._lapack.__wrapped__()
    assert route[2] is ctypes.c_int
    return route
