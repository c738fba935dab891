"""Weak values for pre- and post-selected pairs, plus a pointer-coupling readout.

The weak value of an observable O between a pre-selected state and a
post-selected state is the complex ratio

    <post|O|pre> / <post|pre>.

It is invariant under rescaling either state and linear in O. Near
orthogonality the ratio diverges; below a relative overlap threshold the
functions here refuse with an anomalous-selection error that carries the raw
overlap, so callers can opt into amplification studies deliberately.

`pointer_shift` realizes the standard von Neumann readout: a Gaussian
pointer is coupled impulsively through exp(-i g O p_hat), the system is
post-selected, and the conditional pointer means are returned. As g -> 0,

    (position shift)/g            -> Re <O>_w
    (momentum shift)/(2 g sp**2)  -> Im <O>_w

where sp is the pointer's momentum-space standard deviation. The pointer
is discretized on a uniform grid with momentum translation applied in
Fourier space, so the translation itself is spectrally exact.

The coupling is evaluated on the Krylov space of the pre-state,
span{pre, O pre, O^2 pre, ...}, built from sparse applies at any photon
count n: one pointer branch per eigenvalue of O in pre's spectral support,
so the cost does not depend on the dimension 4**n. An observable that is not
Hermitian on that space is rejected with InputError (CLI exit 2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import hilbert
from .errors import AnomalousSelectionError, InputError
from .hilbert import Ket, Operator

OVERLAP_THRESHOLD = 1e-10
# pointer readout: Krylov residual and Hermiticity, relative to the projected scale
_KRYLOV_TOL = 1e-12
_HERMITIAN_TOL = 1e-10

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
    """All 4n path/grin weak values of a pair, in deterministic order.

    Keys are (kind, photon, arm) with kind in {"path", "grin"}; iteration
    order is photon index, then kind (path before grin), then arm (L, R).
    """

    n_photons: int
    entries: dict[tuple[str, int, str], complex]
    overlap: complex

    def value(self, kind: str, photon: int, arm: str) -> complex:
        return self.entries[(kind, photon, arm)]

    def rows(self) -> list[tuple[int, str, str, float, float]]:
        return [(p, k, a, v.real, v.imag) for (k, p, a), v in self.entries.items()]

    def to_table(self, flag_tol: float = 1e-12) -> str:
        lines = [f"{'photon':>6}  {'kind':<5} {'arm':<3} {'Re':>18} {'Im':>18}  flag"]
        for photon, kind, arm, re, im in self.rows():
            flag = ""
            if abs(im) <= flag_tol:
                if abs(re) <= flag_tol:
                    flag = "=0"
                elif abs(re - 1.0) <= flag_tol:
                    flag = "=1"
            lines.append(f"{photon:>6}  {kind:<5} {arm:<3} {re:>18.12g} {im:>18.12g}  {flag}")
        lines.append(
            f"{'':>6}  {'overlap':<5} {'':<3} {self.overlap.real:>18.12g} {self.overlap.imag:>18.12g}"
        )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["photon,kind,arm,re,im"]
        for photon, kind, arm, re, im in self.rows():
            lines.append(f"{photon},{kind},{arm},{re:.12g},{im:.12g}")
        lines.append(f",overlap,,{self.overlap.real:.12g},{self.overlap.imag:.12g}")
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "n_photons": self.n_photons,
            "entries": [
                {"photon": p, "kind": k, "arm": a, "re": re, "im": im}
                for p, k, a, re, im in self.rows()
            ],
            "overlap": {"re": self.overlap.real, "im": self.overlap.imag},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
    try:
        if len(parts) == 2 and parts[0] == "sigma":
            return hilbert.circular_sigma_z(convention, int(parts[1]))
        if len(parts) == 3 and parts[0] in KINDS:
            return observable_for(convention, parts[0], int(parts[1]), parts[2])
    except ValueError:
        raise InputError(f"bad photon index in observable descriptor {text!r}") from None
    raise InputError(
        f"bad observable descriptor {text!r}; expected path:i:ARM, grin:i:ARM, sigma:i, or id"
    )


def weak_value_report(pair: PrePostPair) -> WeakValueReport:
    """Evaluate all 4n path and grin weak values of the pair."""
    ovl = _checked_overlap(pair)
    convention = pair.convention
    entries: dict[tuple[str, int, str], complex] = {}
    for photon in range(1, pair.n_photons + 1):
        for kind in KINDS:
            for arm in ARMS:
                obs = observable_for(convention, kind, photon, arm)
                numerator = hilbert.matrix_element(pair.post, obs, pair.pre)
                entries[(kind, photon, arm)] = numerator / ovl
    return WeakValueReport(pair.n_photons, entries, ovl)


@dataclass(frozen=True)
class PointerConfig:
    """Gaussian pointer discretization for the impulsive coupling.

    sigma_p is the momentum-space standard deviation; the position width is
    1/(2 sigma_p). The grid spans [-extent, extent) with `points` samples
    and must hold the Gaussian to a truncated-norm deficit below 1e-10.
    """

    g: float
    sigma_p: float = 0.5
    extent: float = 16.0
    points: int = 512

    def __post_init__(self):
        for name in ("g", "sigma_p", "extent"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InputError(f"{name} must be finite and positive, got {value}")
        if self.points < 16:
            raise InputError(f"points must be at least 16, got {self.points}")

    @property
    def sigma_x(self) -> float:
        return 1.0 / (2.0 * self.sigma_p)

    def grid(self) -> tuple[np.ndarray, float]:
        dx = 2.0 * self.extent / self.points
        x = -self.extent + dx * np.arange(self.points)
        return x, dx

    def initial_pointer(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Grid, normalized Gaussian, and step; validates the truncation deficit."""
        x, dx = self.grid()
        sx = self.sigma_x
        grid_text = f"(extent={self.extent}, points={self.points}, sigma_x={sx})"
        if sx * sx == 0.0:
            raise InputError(f"pointer grid too coarse or narrow: sigma_x**2 underflows to 0 {grid_text}")
        psi = (2.0 * np.pi * sx * sx) ** (-0.25) * np.exp(-(x * x) / (4.0 * sx * sx))
        total = float(np.sum(np.abs(psi) ** 2) * dx)
        if abs(total - 1.0) > 1e-10:
            raise InputError(f"pointer grid too coarse or narrow: truncated norm {total!r} {grid_text}")
        return x, psi / np.sqrt(total), dx


def _krylov_projection(obs: Operator, start: Ket) -> tuple[list[Ket], np.ndarray]:
    """Orthonormal basis of span{start, O start, O^2 start, ...} and O projected onto it.

    `start` must have unit norm. Arnoldi iteration with every new vector
    orthogonalized twice against the basis (Golub & Van Loan, Matrix
    Computations, ch. 10), using sparse applies only. It stops when the
    residual vanishes relative to the largest |O v_j| seen, or when the basis
    spans the whole space. The returned H[i, j] = <v_i|O|v_j> is upper
    Hessenberg; on a closed space it is all of O restricted there.
    """
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
    spectral support. One translated pointer branch is built per such
    eigenvalue lambda, weighted by <post|P_lambda|pre>, so the cost does not
    depend on the dimension 4**n. O must be Hermitian on that space (relative
    to its largest projected entry); otherwise InputError is raised.
    """
    ovl = pair.overlap()  # raw; divergence handling is on the selection probability
    pre = hilbert.normalize(pair.pre)
    post = hilbert.normalize(pair.post)
    basis, proj_op = _krylov_projection(obs, pre)
    scale = float(np.max(np.abs(proj_op)))
    if np.max(np.abs(proj_op - proj_op.conj().T)) > _HERMITIAN_TOL * scale:
        raise InputError(
            f"observable {obs.name or '(unnamed)'} is not Hermitian on the Krylov space "
            "of the pre-state"
        )
    vals, vecs = np.linalg.eigh(proj_op)
    a = vecs[0].conj()  # <lambda|pre>, since pre is the first basis vector
    b = vecs.conj().T @ np.array([hilbert.inner(v, post) for v in basis])
    weights = b.conj() * a  # <post|lambda><lambda|pre>

    x, psi, dx = cfg.initial_pointer()
    p = 2.0 * np.pi * np.fft.fftfreq(cfg.points, d=dx)
    psi_hat = np.fft.fft(psi)

    # one translated copy of the pointer per eigenvalue, summed with weights
    phases = np.exp(-1j * cfg.g * np.outer(vals, p))
    branches = np.fft.ifft(psi_hat[None, :] * phases, axis=1)
    phi = (weights[:, None] * branches).sum(axis=0)

    prob = float(np.sum(np.abs(phi) ** 2) * dx)
    if prob < 1e-15:
        raise AnomalousSelectionError(
            f"post-selection probability {prob} below 1e-15 at g={cfg.g}", overlap=ovl
        )
    density = np.abs(phi) ** 2
    mean_x = float(np.sum(x * density) * dx / prob)

    phi_hat = np.fft.fft(phi)
    mom_density = np.abs(phi_hat) ** 2
    mean_p = float(np.sum(p * mom_density) / np.sum(mom_density))
    return mean_x, mean_p
