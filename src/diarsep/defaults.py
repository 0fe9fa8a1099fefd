"""What cli.py imports from the package at module level: the defaults that the parser
shows, and ``names_file``. Numpy-free, so building the parser imports no numpy."""

import os
from contextlib import contextmanager

# diarize
DEFAULT_HOP = 5.0
DEFAULT_MIN_SEG = 0.25
DEFAULT_AHC_THRESHOLD = 0.5

# resample
SUPPORTED_RATES = (8000, 16000)
DEFAULT_STOPBAND_DB = 80.0
DEFAULT_TRANSITION_FRAC = 0.05


@contextmanager
def names_file(path: str | os.PathLike):
    """Give ``path`` as its file name to an OSError that leaves the block naming no file (a failed read or write)."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise
