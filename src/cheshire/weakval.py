"""Weak values for pre- and post-selected pairs, plus a pointer-coupling readout.

The weak value of an observable O between a pre-selected state and a
post-selected state is the complex ratio

    <post|O|pre> / <post|pre>.

It is invariant under rescaling either state and linear in O. Near
orthogonality the ratio diverges; below a relative overlap threshold the
functions here refuse with an anomalous-selection error that carries the raw
overlap, so callers can opt into amplification studies deliberately.

`weak_value_report` gives the 4n path and grin weak values of an n-photon
pair, the paper's delta pattern. It reads the Pauli strings of those
observables (see `hilbert`) off the pre and post amplitudes directly, in one
pass per photon, without building an operator. Its (kind, photon, arm) keys
come from one table, `report_keys`, shared by every report and by
`scenarios.expected_pattern`.

`pointer_shift` realizes the standard von Neumann readout: a Gaussian
pointer is coupled impulsively through exp(-i g O p_hat), the system is
post-selected, and the conditional pointer means are returned. As g -> 0,

    (position shift)/g            -> Re <O>_w
    (momentum shift)/(2 g sp**2)  -> Im <O>_w

where sp is the pointer's momentum-space standard deviation (Aharonov,
Albert & Vaidman, PRL 60, 1351, 1988).

The coupling is evaluated on the Krylov space of the pre-state,
span{pre, O pre, O^2 pre, ...}, built from sparse applies at any photon
count n: one pointer branch per eigenvalue of O in pre's spectral support,
so the cost does not depend on the dimension 4**n. An observable that is not
Hermitian within 1e-12 is rejected with InputError (CLI exit 2). Each
branch is the Gaussian translated by g times its eigenvalue, and the
pointer moments are closed-form sums over pairs of branches, exact at any
width and coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import hilbert
from .errors import AnomalousSelectionError, InputError
from .expr import parse_natural
from .hilbert import Ket, Operator

if TYPE_CHECKING:
    import numpy as np

OVERLAP_THRESHOLD = 1e-10
# pointer readout: Krylov residual, relative to the largest |O v| seen
_KRYLOV_TOL = 1e-12

KINDS = ("path", "grin")
ARMS = ("L", "R")


@dataclass(frozen=True)
class PrePostPair:
    """A pre-selected state, a post-selected state, and their photon count."""

    pre: Ket
    post: Ket
    n_photons: int

    def __post_init__(self):
        if self.pre.convention != self.post.convention:
            raise InputError("pre and post states use mixed conventions")
        if self.pre.convention.n_photons != self.n_photons:
            raise InputError(
                f"n_photons {self.n_photons} does not match the states' convention "
                f"({self.pre.convention.n_photons})"
            )

    @property
    def convention(self) -> hilbert.BasisConvention:
        return self.pre.convention

    def overlap(self) -> complex:
        return hilbert.inner(self.post, self.pre)


def pair_from_states(pre: Ket, post: Ket) -> PrePostPair:
    return PrePostPair(pre, post, pre.convention.n_photons)


def _checked_overlap(pair: PrePostPair) -> complex:
    ovl = pair.overlap()
    scale = pair.pre.norm() * pair.post.norm()
    if abs(ovl) <= OVERLAP_THRESHOLD * scale:
        raise AnomalousSelectionError(
            f"pre/post overlap {ovl} is below the relative threshold {OVERLAP_THRESHOLD}",
            overlap=ovl,
        )
    return ovl


def weak_value(obs: Operator, pair: PrePostPair) -> complex:
    """<post|O|pre> / <post|pre>."""
    ovl = _checked_overlap(pair)
    numerator = hilbert.matrix_element(pair.post, obs, pair.pre)
    return numerator / ovl


@dataclass(frozen=True)
class WeakValueReport:
    """All 4n path/grin weak values of a pair, in deterministic order, and
    the raw overlap <post|pre> they were divided by.

    Keys are (kind, photon, arm) with kind in {"path", "grin"}; iteration
    order is photon index, then kind (path before grin), then arm (L, R).
    The key tuples themselves are shared (`report_keys`). The report is data
    only: `cheshire scenario` renders it.
    """

    entries: dict[tuple[str, int, str], complex]
    overlap: complex


def observable_for(convention: hilbert.BasisConvention, kind: str, photon: int, arm: str) -> Operator:
    if kind == "path":
        return hilbert.path_projector(convention, photon, arm)
    if kind == "grin":
        return hilbert.grin_observable(convention, photon, arm)
    raise InputError(f"unknown observable kind {kind!r}")


def observable_from_descriptor(convention: hilbert.BasisConvention, text: str) -> Operator:
    """Build an observable from a descriptor string.

    Forms: ``path:i:ARM``, ``grin:i:ARM``, ``sigma:i`` (full circular
    polarization of photon i), ``id`` (identity).
    """
    parts = text.strip().split(":")
    if parts == ["id"]:
        return hilbert.identity_op(convention)
    what = f"photon index in {text!r}"
    if len(parts) == 2 and parts[0] == "sigma":
        return hilbert.circular_sigma_z(convention, parse_natural(parts[1], what))
    if len(parts) == 3 and parts[0] in KINDS:
        return observable_for(convention, parts[0], parse_natural(parts[1], what), parts[2])
    raise InputError(
        f"bad observable descriptor {text!r}; expected path:i:ARM, grin:i:ARM, sigma:i, or id"
    )


# (kind, photon, arm) keys in report order, shared by every report and pattern
_REPORT_KEYS: tuple[tuple[str, int, str], ...] = ()


def report_keys(n: int) -> tuple[tuple[str, int, str], ...]:
    """The 4n report keys of an n-photon pair: photon, then kind, then arm."""
    global _REPORT_KEYS
    have = len(_REPORT_KEYS) // 4
    if n > have:
        _REPORT_KEYS += tuple(
            (kind, photon, arm) for photon in range(have + 1, n + 1) for kind in KINDS for arm in ARMS
        )
    return _REPORT_KEYS[: 4 * n]


def weak_value_report(pair: PrePostPair) -> WeakValueReport:
    """Evaluate all 4n path and grin weak values of the pair.

    The Pauli strings of each photon's four observables are read off the
    amplitudes directly. With p its path bit and m its polarization bit, the
    strings that share an x-mask sum to 1+0j on the projected arm for the
    path projectors, and for the grin observables to +1j where bit m of k is
    0 and -1j where it is 1 (0 on the other arm), so

        <post|Pi_arm|pre>     = sum over k on the arm of conj(post[k]) pre[k]
        <post|grin_arm|pre>   = sum over k on the arm of conj(post[k ^ m]) (+-1j) pre[k]

    with the arm read from k & p. Each sum runs in pre's order, as
    `hilbert.matrix_element` runs it, so every entry equals
    weak_value(observable_for(...), pair) bit for bit. The keys are shared
    with every other report and pattern (`report_keys`).
    """
    ovl = _checked_overlap(pair)
    n = pair.n_photons
    pre, post = pair.pre.amplitudes, pair.post.amplitudes
    up, down = 1j, complex(0.0, -1.0)
    # a path term reads post[k] whatever the photon, so it is computed once
    path_terms = [(k, post[k].conjugate() * ((1 + 0j) * a)) for k, a in pre.items() if k in post]
    values: list[complex] = []
    for photon in range(1, n + 1):
        p = 1 << (2 * n - photon)
        m = p >> n  # a photon's polarization bit sits n places below its path bit
        path_l = path_r = grin_l = grin_r = 0j
        for k, t in path_terms:
            if k & p:
                path_r += t
            else:
                path_l += t
        for k, a in pre.items():
            b = post.get(k ^ m)
            if b is not None:
                t = b.conjugate() * ((down if k & m else up) * a)
                if k & p:
                    grin_r += t
                else:
                    grin_l += t
        values += (path_l / ovl, path_r / ovl, grin_l / ovl, grin_r / ovl)
    return WeakValueReport(dict(zip(report_keys(n), values)), ovl)


@dataclass(frozen=True)
class PointerConfig:
    """Coupling g and momentum spread sigma_p of a centred Gaussian pointer.

    The position width is sigma_x = 1/(2 sigma_p); a sigma_p so large that
    sigma_x**2 underflows to 0 is refused.
    """

    g: float
    sigma_p: float = 0.5

    def __post_init__(self):
        for name in ("g", "sigma_p"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InputError(f"{name} must be finite and positive, got {value}")
        if self.sigma_x * self.sigma_x == 0.0:
            raise InputError(f"pointer too narrow: sigma_x**2 underflows to 0 (sigma_x={self.sigma_x})")

    @property
    def sigma_x(self) -> float:
        return 1.0 / (2.0 * self.sigma_p)


def _krylov_projection(obs: Operator, start: Ket) -> tuple[list[Ket], np.ndarray]:
    """Orthonormal basis of span{start, O start, O^2 start, ...} and O projected onto it.

    `start` must have unit norm. Arnoldi iteration with every new vector
    orthogonalized twice against the basis (Golub & Van Loan, Matrix
    Computations, ch. 10), using sparse applies only. It stops when the
    residual vanishes relative to the largest |O v_j| seen, or when the basis
    spans the whole space. The returned H[i, j] = <v_i|O|v_j> is upper
    Hessenberg; on a closed space it is all of O restricted there.
    """
    import numpy as np

    basis = [start]
    columns: list[np.ndarray] = []
    scale = 0.0
    while True:
        w = hilbert.apply(obs, basis[-1])
        scale = max(scale, w.norm())
        coeffs = np.zeros(len(basis) + 1, dtype=complex)
        for _ in range(2):
            proj = [hilbert.inner(v, w) for v in basis]
            w = hilbert.superpose([(1.0, w)] + [(-c, v) for c, v in zip(proj, basis)])
            coeffs[:-1] += proj
        coeffs[-1] = beta = w.norm()
        columns.append(coeffs)
        if beta <= _KRYLOV_TOL * scale or len(basis) == start.convention.dim:
            break
        basis.append(hilbert.superpose([(1.0 / beta, w)]))
    k = len(basis)
    proj_op = np.zeros((k, k), dtype=complex)
    for j, coeffs in enumerate(columns):
        rows = min(j + 2, k)
        proj_op[:rows, j] = coeffs[:rows]
    return basis, proj_op


def pointer_shift(obs: Operator, pair: PrePostPair, cfg: PointerConfig) -> tuple[float, float]:
    """Conditional pointer mean shifts (position, momentum) after the coupling.

    The initial pointer has zero mean position and momentum, so the returned
    values are the shifts themselves. The coupling only ever acts on the
    Krylov space of the pre-state, span{pre, O pre, O^2 pre, ...}, which
    closes after as many steps as pre has distinct eigenvalues of O in its
    spectral support. Each such eigenvalue lambda gives one pointer branch,
    the Gaussian translated by g lambda and weighted by <post|P_lambda|pre>,
    so the cost does not depend on the dimension 4**n. The post-selected
    norm and the means are closed-form sums over pairs of branches. O must be
    Hermitian within 1e-12, read exactly from its Pauli coefficients;
    otherwise InputError is raised.
    """
    import numpy as np

    ovl = pair.overlap()  # raw; divergence handling is on the selection probability
    pre = hilbert.normalize(pair.pre)
    post = hilbert.normalize(pair.post)
    if obs.hermitian_defect() > hilbert.HERMITIAN_TOL:
        raise InputError("observable is not Hermitian within 1e-12")
    basis, proj_op = _krylov_projection(obs, pre)
    vals, vecs = np.linalg.eigh(proj_op)
    a = vecs[0].conj()  # <lambda|pre>, since pre is the first basis vector
    b = vecs.conj().T @ np.array([hilbert.inner(v, post) for v in basis])
    weights = b.conj() * a  # <post|lambda><lambda|pre>

    # Branches psi(x - g lambda) and psi(x - g mu) have overlap G = exp(-t**2/2)
    # with t = sigma_p g (lambda - mu); between them x has matrix element
    # g (lambda + mu)/2 G and p has i sigma_p t G. Past |t| = 40, G is 0 in double
    # precision, so clipping t there changes nothing and keeps an overflowed t
    # out of t * G.
    with np.errstate(over="ignore"):
        t = np.clip((vals[:, None] - vals[None, :]) * cfg.g * cfg.sigma_p, -40.0, 40.0)
    gram = np.outer(weights.conj(), weights) * np.exp(-0.5 * t * t)
    prob = float(np.sum(gram).real)
    if prob < 1e-15:
        raise AnomalousSelectionError(
            f"post-selection probability {prob} below 1e-15 at g={cfg.g}", overlap=ovl
        )
    mid = 0.5 * (vals[:, None] + vals[None, :])
    mean_x = cfg.g * float(np.sum(gram * mid).real) / prob
    mean_p = -cfg.sigma_p * float(np.sum(gram * t).imag) / prob  # Re(i z) = -Im z
    return mean_x, mean_p
