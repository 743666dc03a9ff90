"""Finite-dimensional operator-valued frames with verified identities and bounds."""

from .errors import (
    ConvergenceError,
    EpsilonOutOfRangeError,
    FrameFormatError,
    FrameOverflowError,
    GFrameError,
    NotADualError,
    NotAFrameError,
    NotParsevalError,
    PostconditionError,
)
from .linalg import frobenius_norm_sq
from .model import (
    DUAL_TOLERANCE,
    PARSEVAL_TOLERANCE,
    RANK_TOLERANCE,
    FrameBounds,
    FrameOperator,
    GFrame,
    analysis_apply,
    canonical_dual,
    canonical_parseval,
    dual_residual,
    frame_operator,
    reconstruct,
    synthesis_apply,
    total_frobenius_energy,
    validate_frame,
)
from .io import frame_from_dict, frame_to_dict, load_frame, save_frame, write_frame
from .identities import (
    canonical_dual_gap,
    frobenius_dual_decomposition,
    parseval_approx_decomposition,
    parseval_frobenius_budget,
    parseval_gap,
    parseval_weighted_energy,
    pointwise_dual_decomposition,
    power_trace_identity,
)
from .duals import (
    DualCertificate,
    dual_proximity_bound,
    extremal_frame,
    parseval_proximity_bound,
    random_alternate_dual,
    verify_alternate_dual,
)
from .generators import (
    embed_vector_frame,
    nearly_parseval_gframe,
    random_gframe,
    random_parseval_gframe,
    random_unitary,
)
from .report import (
    CheckResult,
    VerificationReport,
    render_json,
    render_text,
    report_to_dict,
    run_suite,
)

__version__ = "0.1.0"
