"""Suite-wide test settings: hypothesis draws the same examples on every run,
so a property-test failure reproduces on rerun; each test keeps its own
``max_examples``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
