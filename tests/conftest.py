import os
import tempfile

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis still caches the constants it reads from source files;
# that cache goes to the system temporary directory, not the checkout.
settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "pdwave-hypothesis"))
