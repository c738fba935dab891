"""Shared oracle helpers, and `run_cli`, which runs one command line in process.

The dense constructions here are deliberately independent of the package:
operators are built as explicit Kronecker chains over the 2n qubit factors
(paths first, then polarizations), so agreement with the package's sparse
column arithmetic is a real cross-check, not a tautology.
"""

import contextlib
import io
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import cheshire as ch
from cheshire import BasisConvention, Ket, make_ket
from cheshire.cli import main

# child interpreters (the CLI tests that spawn `python -m cheshire.cli`) import
# the package from this checkout too, with or without an installed copy
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

I2 = np.eye(2, dtype=complex)
PI_L = np.array([[1, 0], [0, 0]], dtype=complex)
PI_R = np.array([[0, 0], [0, 1]], dtype=complex)
# |up><up| - |down><down| with up/down = (|H> +- i|V>)/sqrt(2)
SIGMA_CIRC = np.array([[0, -1j], [1j, 0]], dtype=complex)


def kron_chain(factors):
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def dense_path_projector(n, photon, arm):
    factors = [I2] * (2 * n)
    factors[photon - 1] = PI_L if arm == "L" else PI_R
    return kron_chain(factors)


def dense_sigma(n, photon):
    factors = [I2] * (2 * n)
    factors[n + photon - 1] = SIGMA_CIRC
    return kron_chain(factors)


def dense_grin(n, photon, arm):
    return dense_sigma(n, photon) @ dense_path_projector(n, photon, arm)


def dense_observable(n, kind, photon, arm):
    if kind == "path":
        return dense_path_projector(n, photon, arm)
    return dense_grin(n, photon, arm)


def ket_vec(state: Ket) -> np.ndarray:
    vec = np.zeros(state.convention.dim, dtype=complex)
    for k, a in state.amplitudes.items():
        vec[k] = a
    return vec


def dense_weak_value(matrix: np.ndarray, pre: Ket, post: Ket) -> complex:
    pre_vec = ket_vec(pre)
    post_vec = ket_vec(post)
    return (post_vec.conj() @ matrix @ pre_vec) / (post_vec.conj() @ pre_vec)


def random_ket(rng: np.random.Generator, n: int) -> Ket:
    conv = BasisConvention(n)
    vec = rng.standard_normal(conv.dim) + 1j * rng.standard_normal(conv.dim)
    vec = vec / np.linalg.norm(vec)
    return make_ket(conv, {k: complex(v) for k, v in enumerate(vec)})


def basis_ket(convention: BasisConvention, label: str) -> Ket:
    """Unit amplitude on one basis state, named by either label form."""
    return make_ket(convention, {convention.index_of_label(label): 1.0 + 0j})


def equal_up_to_phase(a: Ket, b: Ket, tol: float = 1e-12) -> bool:
    return ch.fidelity_up_to_phase(a, b) >= 1.0 - tol


def delta_targets(convention: BasisConvention) -> list:
    """The 4n path/grin delta targets (odd photons path-left/grin-right)."""
    n = convention.n_photons
    sid = ch.ScenarioId("n_cat", n=n) if n >= 2 else ch.ScenarioId("single")
    return [
        ch.WeakValueTarget(ch.observable_for(convention, kind, photon, arm), complex(value))
        for (kind, photon, arm), value in ch.expected_pattern(sid).items()
    ]


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout
    stderr: str


def run_cli(*args):
    """One in-process command line: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            main(list(args))
    return CliResult(stop.value.code, out.getvalue(), err.getvalue())
