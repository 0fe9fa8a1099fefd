"""Defaults that the CLI parser shows; numpy-free, so building the parser imports no numpy."""

# diarize
DEFAULT_HOP = 5.0
DEFAULT_MIN_SEG = 0.25
DEFAULT_AHC_THRESHOLD = 0.5

# resample
SUPPORTED_RATES = (8000, 16000)
DEFAULT_STOPBAND_DB = 80.0
DEFAULT_TRANSITION_FRAC = 0.05
