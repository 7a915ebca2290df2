"""EdgeHD core: hypervector algebra, encoders, HD classifier, compression.

This subpackage implements the paper's primary contribution at the
single-node level (Sections III and IV-A/C/D primitives); the
hierarchy-level orchestration lives in :mod:`repro.hierarchy`.
"""

from repro.core.classifier import (
    BACKENDS,
    HDClassifier,
    PredictionResult,
    softmax_confidence,
)
from repro.core.kernels import (
    PackedBits,
    pack_bits,
    packed_dot,
    packed_hamming,
    packed_similarities,
    popcount_u64,
    unpack_bits,
    words_per_row,
)
from repro.core.predictor import (
    Predictor,
    result_from_proba,
    result_from_scores,
)
from repro.core.search import (
    SearchSpec,
    get_default_search,
    resolve_search,
    set_default_search,
)
from repro.core.compression import (
    CompressedBatch,
    PositionCodebook,
    compressed_bundle_bytes,
)
from repro.core.packing import (
    bits_for_cap,
    pack_bipolar,
    pack_floats,
    pack_narrow_ints,
    unpack_bipolar,
    unpack_floats,
    unpack_narrow_ints,
)
from repro.core.encoding import (
    CosSinEncoder,
    Encoder,
    IDLevelEncoder,
    LinearEncoder,
    RBFEncoder,
    make_encoder,
)
from repro.core.hypervector import (
    bind,
    bundle,
    cosine,
    cosine_many,
    hamming_similarity,
    normalize_rows,
    permute,
    random_bipolar,
    random_gaussian,
    sign_binarize,
    similarity_matrix,
)
from repro.core.model import (
    EdgeHDModel,
    class_model_bytes,
    hypervector_bytes,
    raw_data_bytes,
)
from repro.core.online import ResidualAccumulator
from repro.core.quantize import (
    QuantizedModel,
    dequantize_model,
    quantize_classifier,
    quantize_model,
)
from repro.core.projection import TernaryProjection, concatenate_hypervectors

__all__ = [
    "BACKENDS",
    "SearchSpec",
    "get_default_search",
    "resolve_search",
    "set_default_search",
    "PackedBits",
    "pack_bits",
    "packed_dot",
    "packed_hamming",
    "packed_similarities",
    "popcount_u64",
    "unpack_bits",
    "words_per_row",
    "Predictor",
    "result_from_proba",
    "result_from_scores",
    "compressed_bundle_bytes",
    "bits_for_cap",
    "pack_bipolar",
    "pack_floats",
    "pack_narrow_ints",
    "unpack_bipolar",
    "unpack_floats",
    "unpack_narrow_ints",
    "HDClassifier",
    "PredictionResult",
    "softmax_confidence",
    "CompressedBatch",
    "PositionCodebook",
    "Encoder",
    "RBFEncoder",
    "CosSinEncoder",
    "LinearEncoder",
    "IDLevelEncoder",
    "make_encoder",
    "bind",
    "bundle",
    "cosine",
    "cosine_many",
    "hamming_similarity",
    "normalize_rows",
    "permute",
    "random_bipolar",
    "random_gaussian",
    "sign_binarize",
    "similarity_matrix",
    "EdgeHDModel",
    "class_model_bytes",
    "hypervector_bytes",
    "raw_data_bytes",
    "ResidualAccumulator",
    "QuantizedModel",
    "dequantize_model",
    "quantize_classifier",
    "quantize_model",
    "TernaryProjection",
    "concatenate_hypervectors",
]
