"""qbench: construct, transform, and evaluate quantum benchmark tests.

Attribute access loads the defining submodule on first use, so importing
the package stays free of numpy/scipy work — the command-line entry point
relies on that to set BLAS thread caps before any numeric import.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # linear algebra
    "Operator": ".linalg",
    "PureState": ".linalg",
    "kron": ".linalg",
    "partial_trace": ".linalg",
    "partial_transpose": ".linalg",
    "permute_systems": ".linalg",
    "hermitian_eig": ".linalg",
    "support_rank": ".linalg",
    "purify": ".linalg",
    "operator_to_json": ".linalg",
    "operator_from_json": ".linalg",
    "state_to_json": ".linalg",
    "state_from_json": ".linalg",
    # tests and channels
    "Channel": ".model",
    "DetTest": ".model",
    "ProbTest": ".model",
    "Ensemble": ".model",
    "performance_operator": ".model",
    "fidelity_test": ".model",
    "jamiolkowski": ".model",
    "apply_channel": ".model",
    "score_det_direct": ".model",
    "score_det_jam": ".model",
    "score_prob": ".model",
    "mp_channel": ".model",
    "channel_to_json": ".model",
    "channel_from_json": ".model",
    "det_test_from_json": ".model",
    "det_test_to_json": ".model",
    "prob_test_from_json": ".model",
    "prob_test_to_json": ".model",
    # threshold engine
    "PnrConfig": ".engine",
    "PnrResult": ".engine",
    "GridBracket": ".engine",
    "GroupRep": ".engine",
    "BenchmarkReport": ".engine",
    "product_numerical_range": ".engine",
    "pnr_grid_oracle": ".engine",
    "check_ppt": ".engine",
    "prob_benchmark": ".engine",
    "det_benchmark": ".engine",
    "covariant_benchmark": ".engine",
    "check_covariance": ".engine",
    "twirl_operator": ".engine",
    "twirl_channel": ".engine",
    "ppt_offset": ".engine",
    "optimal_mp_channel": ".engine",
    # canonical single-setup form
    "CanonicalTestRecipe": ".canonical",
    "canonical_det_test": ".canonical",
    "canonical_prob_test": ".canonical",
    "score_recipe": ".canonical",
    "tests_equivalent_det": ".canonical",
    "tests_equivalent_prob": ".canonical",
    "fully_blackbox_test": ".canonical",
    "recipe_to_json": ".canonical",
    "recipe_from_json": ".canonical",
    # worked scenarios
    "teleport_test": ".presets",
    "teleport_benchmark_exact": ".presets",
    "chsh_test": ".presets",
    "equator_test": ".presets",
    "equator_ensemble": ".presets",
    "pauli_rep": ".presets",
    "tilde_pauli_rep": ".presets",
    "heisenberg_weyl_rep": ".presets",
    "clifford_rep": ".presets",
    "design_ensemble": ".presets",
    # truncated-Fock optics
    "FockCutoff": ".cv",
    "CvParams": ".cv",
    "OracleResult": ".cv",
    "CvSetup": ".cv",
    "coherent_state": ".cv",
    "thermal_state": ".cv",
    "displaced_thermal": ".cv",
    "tmsv": ".cv",
    "two_mode_squeezer": ".cv",
    "beamsplitter": ".cv",
    "gaussian_observable": ".cv",
    "heterodyne_weight": ".cv",
    "scaled_pair_observable": ".cv",
    "additive_noise_channel": ".cv",
    "AnalyticDevice": ".cv",
    "identity_device": ".cv",
    "vacuum_device": ".cv",
    "attenuator_device": ".cv",
    "rescale_mp_device": ".cv",
    "heterodyne_mp_channel": ".cv",
    "build_setup": ".cv",
    "run_setup": ".cv",
    "average_fidelity_oracle": ".cv",
    "amplitude_limit": ".cv",
    "setup_to_json": ".cv",
    # errors
    "ToolkitError": ".errors",
    "DimensionError": ".errors",
    "ContractError": ".errors",
    "SpectralMismatchError": ".errors",
    "SupportError": ".errors",
    "ImaginaryResidueError": ".errors",
    "VanishingSuccessError": ".errors",
    "CutoffError": ".errors",
    "SearchError": ".errors",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
