"""diarsep: evaluation toolkit for speaker diarization and speech separation.

A numpy/scipy library (plus a small CLI) covering the deterministic core of
diarization and separation evaluation: powerset segmentation codec, weighted
layer fusion, sliding-window stitching with agglomerative clustering,
TasNet-style encode/mask/decode, Kaiser-sinc resampling, and exact DER and
SDR/SI-SDR scorers with permutation-invariant matching.
"""

__version__ = "0.1.0"

from .annotation import Annotation, Segment, emit_rttm, parse_rttm, parse_uem
from .audio import AudioBuffer, read_wav, write_wav
from .der import DerReport, compute_der, optimal_mapping, total_der
from .diarize import (
    ChunkSegmentation,
    Embedding,
    ahc_cluster,
    diarize_file,
    pooled_embeddings,
    single_speaker_segments,
    slide_chunks,
    stitch,
)
from .features import FeatureMatrix, FeatureStack, read_feature_stack, write_feature_stack
from .fusion import align_frames, concat_features, normalize_weights, weighted_sum
from .powerset import PowersetSpace, build_space, decode_class, decode_frames, encode_label
from .resample import FirFilter, design_kaiser_sinc, resample
from .sepmetrics import SepReport, pit, sdr, sdr_improvement, si_sdr
from .tasnet import EncoderBasis, mirrored_dct_basis, oracle_masks, random_basis, separate_with_masks

__all__ = [
    "__version__",
    "Annotation",
    "AudioBuffer",
    "ChunkSegmentation",
    "DerReport",
    "Embedding",
    "EncoderBasis",
    "FeatureMatrix",
    "FeatureStack",
    "FirFilter",
    "PowersetSpace",
    "Segment",
    "SepReport",
    "ahc_cluster",
    "align_frames",
    "build_space",
    "compute_der",
    "concat_features",
    "decode_class",
    "decode_frames",
    "design_kaiser_sinc",
    "diarize_file",
    "emit_rttm",
    "encode_label",
    "mirrored_dct_basis",
    "normalize_weights",
    "optimal_mapping",
    "oracle_masks",
    "parse_rttm",
    "parse_uem",
    "pit",
    "pooled_embeddings",
    "random_basis",
    "read_feature_stack",
    "read_wav",
    "resample",
    "sdr",
    "sdr_improvement",
    "separate_with_masks",
    "si_sdr",
    "single_speaker_segments",
    "slide_chunks",
    "stitch",
    "total_der",
    "weighted_sum",
    "write_feature_stack",
    "write_wav",
]
