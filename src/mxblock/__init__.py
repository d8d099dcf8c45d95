"""Block floating-point quantization with a three-way error decomposition."""

__version__ = "0.1.0"

from .quantize import (
    BlockQuantConfig,
    QuantizedTensor,
    block_view,
    qdq_tensor,
    quantize_tensor,
)
from .decompose import (
    DecompReport,
    ErrorDecomposition,
    InvariantViolation,
    decompose_quantizers,
    decompose_tensor,
    scale_precision_sweep,
    tensor_stats,
    verify_identity,
)
from .corrections import (
    AqnSchedule,
    Correction,
    MbsConfig,
    OfConfig,
    OfResult,
    aqn_pieces,
    mbs_qdq,
    of_qdq,
)
from .analysis import (
    GammaStats,
    GemmPropagation,
    TempFit,
    aqn_total_noise,
    cross_term_vs_blocksize,
    cumulative_scale_bias,
    deadzone_truncate,
    effective_rank,
    effective_temperature_fit,
    effective_temperature_predict,
    gamma_stats,
    gemm_error_propagation,
)
from .tensorstore import (
    ContainerReader,
    ContainerWriter,
    StoredTensor,
    SynthSpec,
    SynthTensor,
    TensorEntry,
    TensorSet,
    TensorSource,
    TensorStoreError,
    save_container,
    synth_tensors,
)
