"""The public names of the package root: a change to them must be deliberate."""

import types

import gframes

PUBLIC_NAMES = [
    "CheckResult", "ConvergenceError", "DUAL_TOLERANCE", "DualCertificate",
    "EpsilonOutOfRangeError", "FrameBounds", "FrameFormatError", "FrameOperator",
    "FrameOverflowError", "GFrame", "GFrameError", "NotADualError", "NotAFrameError",
    "NotParsevalError", "PARSEVAL_TOLERANCE", "PostconditionError", "RANK_TOLERANCE",
    "VerificationReport", "analysis_apply", "canonical_dual", "canonical_dual_gap",
    "canonical_parseval", "dual_proximity_bound", "dual_residual", "embed_vector_frame",
    "extremal_frame", "frame_from_dict", "frame_operator", "frame_to_dict",
    "frobenius_dual_decomposition", "frobenius_norm_sq", "load_frame", "nearly_parseval_gframe",
    "parseval_approx_decomposition", "parseval_frobenius_budget", "parseval_gap",
    "parseval_proximity_bound", "parseval_weighted_energy", "pointwise_dual_decomposition",
    "power_trace_identity", "random_alternate_dual", "random_gframe", "random_parseval_gframe",
    "random_unitary", "reconstruct", "render_json", "render_text", "report_to_dict", "run_suite",
    "save_frame", "synthesis_apply", "total_frobenius_energy", "validate_frame",
    "verify_alternate_dual", "write_frame",
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package once imported, so they are not counted.
    names = sorted(name for name, value in vars(gframes).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
