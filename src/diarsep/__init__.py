"""diarsep: evaluation toolkit for speaker diarization and speech separation.

A numpy library (plus a small CLI) covering the deterministic core of
diarization and separation evaluation: powerset segmentation codec, weighted
layer fusion, chunk stitching with agglomerative clustering,
TasNet-style encode/mask/decode, Kaiser-sinc resampling, and exact DER and
SDR/SI-SDR scorers with permutation-invariant matching.

The public names load on first use (PEP 562): ``import diarsep`` imports
no submodule and no numpy, so a CLI child loads only what its subcommand runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# public name -> the submodule that defines it, grouped by submodule
_EXPORTS = {
    "annotation": ("Annotation", "Segment", "emit_rttm", "parse_rttm", "parse_uem"),
    "audio": ("AudioBuffer", "read_wav", "write_wav"),
    "der": ("DerReport", "compute_der", "optimal_mapping", "total_der"),
    "diarize": ("ChunkSegmentation", "Embedding", "ahc_cluster", "diarize_file", "pooled_embeddings", "stitch"),
    "features": ("FeatureMatrix", "FeatureStack", "read_feature_stack", "write_feature_stack"),
    "fusion": ("align_frames", "concat_features", "normalize_weights", "weighted_sum"),
    "powerset": ("PowersetSpace", "build_space", "decode_frames"),
    "resample": ("FirFilter", "design_kaiser_sinc", "resample"),
    "sepmetrics": ("SepReport", "pit", "sdr", "sdr_improvement", "si_sdr"),
    "tasnet": (
        "EncoderBasis",
        "mirrored_dct_basis",
        "oracle_masks",
        "oracle_separation",
        "random_basis",
        "separate_with_masks",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Keeps a public name bound to its object when a submodule of the same name loads.

    Importing a submodule sets it as an attribute of the package, so loading
    ``diarsep.resample`` would otherwise hide the function ``diarsep.resample``.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
