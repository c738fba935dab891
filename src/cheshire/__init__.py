"""Weak values and post-selected quantum systems on photon path/polarization.

The package simulates pre- and post-selected ensembles of n photons, each
carrying a path qubit (arms L/R) and a polarization qubit (H/V). It
computes weak values, builds the scenario families in which path and
circular polarization localize in opposite arms, synthesizes post-selection
states from target weak values, runs the two-photon interferometer that
realizes the two-photon scenario, and simulates the weakly coupled Gaussian
pointer that reads weak values out.

Public names and submodules resolve lazily (PEP 562): `import cheshire`
loads no submodule, and the first use of a name imports only the module that
defines it. numpy is imported only by the functions that do dense algebra or
sampling (and by `solver`, all of whose paths need it), so sparse work never
loads it.
"""

import importlib

__version__ = "1.0.0"

# home module -> the public names it defines
_EXPORTS = {
    "errors": (
        "AnomalousSelectionError", "CalibrationError", "CheshireError", "CircuitConfigError",
        "CircuitParseError", "DegenerateScenarioError", "FileParseError",
        "InfeasibleTargetsError", "InputError", "VacuousSelectionError", "ZeroNormError",
    ),
    "hilbert": (
        "BasisConvention", "Ket", "Operator", "apply", "circular_sigma_z",
        "fidelity_up_to_phase", "grin_observable", "identity_op", "inner", "ket_from_dense",
        "make_ket", "normalize", "op_add", "op_compose", "op_scale", "operator_from_dense",
        "path_projector", "superpose",
    ),
    "optics": (
        "CalibrationResult", "Circuit", "ClickRecord", "ExactResult", "builtin_circuit_path",
        "calibrate_postselection", "effective_postselection", "parse_circuit",
        "parse_circuit_file", "run_exact", "run_monte_carlo", "run_pre_block", "two_cat_device",
    ),
    "scenarios": (
        "ScenarioId", "build_pair", "expected_pattern", "general_two_cat", "n_cat", "single", "two_cat",
    ),
    "solver": ("WeakValueTarget", "assemble", "parse_problem_file", "solve_post", "verify"),
    "weakval": (
        "PointerConfig", "PrePostPair", "WeakValueReport", "observable_for",
        "observable_from_descriptor", "pair_from_states", "pointer_shift", "weak_value",
        "weak_value_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Submodules resolve too, as when this file imported them all. Any other
    # unknown name must raise AttributeError, which `getattr(cheshire, name,
    # default)` relies on.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
