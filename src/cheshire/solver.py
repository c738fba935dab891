"""Synthesize post-selected states from a pre-state and target weak values.

Each target (O, w) imposes <post|(O - w I)|pre> = 0, which is homogeneous and
linear in the conjugated post amplitudes. Multiplying out the weak-value
denominator this way discards the denominator-nonzero condition, so that
condition is re-imposed afterwards as a feasibility filter: a candidate
solution must have nonzero overlap with the pre-state, otherwise the weak
values it defines do not exist.

The solve works on the active support only: the basis states in the support
of the pre-state or of some (O_t - w_t)|pre>. Any other basis state appears
in no constraint and is orthogonal to the pre-state, so a post amplitude
there can never make a solution feasible; it stays zero. The system
therefore has one column per active basis state, never 4^n of them, and
solves at any photon count. Each row is read straight off the target's Pauli
strings into a plain dict, with the prunes, summation order and overflow
refusal of superposing the Kets O|pre> and -w|pre>, but without building them.

The solve is exact linear algebra: a rank-revealing pass (SVD cutoff 1e-10
relative to the largest singular value) fixes the numerical rank, and a
deterministic reduced-row-echelon elimination with lexicographic pivot order
leaves one nullspace vector per free column f: 1 at f, -echelon[p, f] at
pivot column p. The returned state is the feasible one with minimal support
(fewest nonzero amplitudes), encoding the convention that unconstrained
amplitudes are chosen zero; ties break toward the lowest free column. The
overlap, norm and support of every candidate are read from the echelon
columns and only the chosen vector is built, so memory grows as rows times
columns.

The returned ket is unnormalized; its phase is fixed so the amplitude paired
with the pre-state's first support term is purely negative-imaginary when
possible, and its largest amplitude magnitude is scaled to 1.

`verify` checks and takes the overlap <post|pre> once and divides each
target's <post|O|pre> by it, the arithmetic of `weakval.weak_value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hilbert, weakval
from .errors import (
    FileParseError,
    InfeasibleTargetsError,
    InputError,
    VacuousSelectionError,
)
from .expr import Directives, parse_real
from .hilbert import Ket, Operator

_RANK_CUTOFF_REL = 1e-10
_SUPPORT_REL = 1e-12


@dataclass(frozen=True)
class WeakValueTarget:
    """One constraint: the observable's weak value must equal `target`.

    The observable must be Hermitian within 1e-12. The check reads the
    operator's Pauli coefficients, so it is exact and runs at every photon
    count.
    """

    observable: Operator
    target: complex

    def __post_init__(self):
        if self.observable.hermitian_defect() > hilbert.HERMITIAN_TOL:
            raise InputError("target observable is not Hermitian within 1e-12")


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows act on the conjugated post amplitudes at `columns`: matrix @ conj(m) = 0.

    Row t is (O_t - w_t I)|pre> for the t-th target. `columns` are the active
    basis indices in ascending order, the support of the pre-state and of
    every row; matrix column j belongs to basis state columns[j]. The system
    has this shape at any photon count.
    """

    matrix: np.ndarray
    columns: tuple[int, ...]
    pre: Ket


def assemble(pre: Ket, targets: Sequence[WeakValueTarget]) -> ConstraintSystem:
    """Row t is (O_t - w_t I)|pre> on the active columns."""
    if not targets:
        raise InputError("assemble needs at least one target")
    if pre.norm() == 0.0:
        raise InputError("pre-state is the zero vector")
    amps = pre.amplitudes
    rows = []
    for tgt in targets:
        if tgt.observable.convention != pre.convention:
            raise InputError("target observable and pre-state use mixed conventions")
        # superpose([(1.0, apply(O, pre)), (-w, pre)]) without building its Kets
        applied = hilbert._apply_amplitudes(tgt.observable, amps).items()
        row = hilbert._prune({k: 0j + 1.0 * a for k, a in applied})
        shift = -tgt.target
        for k, b in amps.items():
            row[k] = row.get(k, 0j) + shift * b
        rows.append(hilbert._refuse_overflow(hilbert._prune(row)))
    columns = tuple(sorted(set(amps).union(*rows)))
    position = {k: j for j, k in enumerate(columns)}
    matrix = np.zeros((len(rows), len(columns)), dtype=complex)
    for t, row in enumerate(rows):
        for k, a in row.items():
            matrix[t, position[k]] = a
    return ConstraintSystem(matrix, columns, pre)


def _row_echelon(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic reduced row echelon form: (pivot rows, pivot columns).

    Pivot columns are taken left to right; a column pivots if its largest
    remaining entry exceeds the SVD-derived cutoff. Pivot row p is 1 at pivot
    column p and 0 at every other pivot column. The pivot row is swapped into
    place as it is scaled, and the other rows holding an entry in its column
    are cleared in one update.
    """
    rows, cols = matrix.shape
    work = matrix.astype(complex)
    sigma_max = float(np.linalg.svd(work, compute_uv=False)[0]) if work.size and np.any(work) else 0.0
    cutoff = _RANK_CUTOFF_REL * sigma_max
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sub = np.abs(work[r:, c])
        best = int(sub.argmax())
        if sub[best] <= cutoff:
            continue
        best += r
        pivot = work[best] / work[best, c]
        work[best] = work[r]
        work[r] = pivot
        nz = work[:, c].nonzero()[0]
        if len(nz) > 1:
            nz = nz[nz != r]
            work[nz] = work[nz] - work[nz, c][:, None] * pivot
        pivot_cols.append(c)
        r += 1
    return work[:r], np.array(pivot_cols, dtype=int)


def solve_post(system: ConstraintSystem) -> Ket:
    """Pick the minimal-support feasible nullspace vector and fix phase/scale."""
    echelon, pivots = _row_echelon(system.matrix)
    cols = len(system.columns)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    # every inactive basis state is a nonzero solution orthogonal to the
    # pre-state, so an empty active nullspace is infeasible only when no
    # basis state is inactive; otherwise it is vacuous
    if not free.size and cols == system.pre.convention.dim:
        raise InfeasibleTargetsError("the constraint system has no nonzero solution")
    pre_vec = np.array([system.pre.amplitudes.get(k, 0j) for k in system.columns])
    pre_norm = float(np.linalg.norm(pre_vec))
    coeffs = echelon[:, free]
    mags = np.abs(coeffs)
    # y_f holds conj(post amplitudes); overlap <post|pre> = y_f . pre
    overlaps = pre_vec[free] - pre_vec[pivots] @ coeffs
    norms = np.sqrt(1.0 + (mags * mags).sum(axis=0))
    feasible = (np.abs(overlaps) > weakval.OVERLAP_THRESHOLD * norms * pre_norm).nonzero()[0]
    if not feasible.size:
        raise VacuousSelectionError(
            "every solution of the constraint system is orthogonal to the pre-state"
        )
    mags = mags[:, feasible]
    cut = _SUPPORT_REL * mags.max(axis=0, initial=1.0)
    support = (1.0 > cut) + (mags > cut).sum(axis=0)
    f = free[feasible[support.argmin()]]
    y = np.zeros(cols, dtype=complex)
    y[f] = 1.0
    y[pivots] = -echelon[:, f]
    m = y.conj()
    peak = float(np.max(np.abs(m)))
    m[np.abs(m) <= _SUPPORT_REL * peak] = 0.0
    for j, k in enumerate(system.columns):
        if k in system.pre.amplitudes and abs(m[j]) > 0:
            m = m * (-1j * abs(m[j]) / m[j])
            break
    m = m / float(np.max(np.abs(m)))
    return hilbert.make_ket(system.pre.convention, dict(zip(system.columns, m.tolist())))


def verify(pre: Ket, post: Ket, targets: Sequence[WeakValueTarget]) -> float:
    """Max over targets of |weak_value(O) - w| for the (pre, post) pair."""
    pair = weakval.PrePostPair(pre, post, pre.convention.n_photons)
    residual = 0.0
    ovl = weakval._checked_overlap(pair) if targets else None
    for tgt in targets:
        value = hilbert.matrix_element(post, tgt.observable, pre) / ovl
        residual = max(residual, abs(value - tgt.target))
    return residual


# ---------------------------------------------------------------------------
# problem file format
#
#     photons 2
#     pre 0100 cos(pi/4) 0
#     pre 1000 (1/sqrt(2)) 0
#     target path:1:L 1 0
#     target grin:2:R 1 0
#
# 'pre' rows accumulate label + real + imaginary amplitude parts (arithmetic
# expressions allowed); 'target' rows name an observable descriptor and the
# complex target value. '#' starts a comment.


def _target(
    convention: hilbert.BasisConvention, line_no: int, descriptor: str, value: complex
) -> WeakValueTarget:
    try:
        return WeakValueTarget(weakval.observable_from_descriptor(convention, descriptor), value)
    except InputError as exc:
        raise FileParseError(str(exc), line_no) from None


def parse_problem_text(text: str) -> tuple[Ket, list[WeakValueTarget]]:
    """The pre-state and targets of a problem file; a bad file raises at its first bad line."""
    lines = Directives(text, FileParseError)
    amps: dict[int, complex] = {}
    last_pre = 0  # the line where the pre rows' sum is complete
    targets: list[WeakValueTarget] = []
    waiting: list[tuple[int, str, complex]] = []  # target rows read before the photons line
    for line_no, words in lines:
        try:
            if words[0] == "pre":
                if lines.convention is None:
                    raise FileParseError("photons must come before pre rows", line_no)
                if len(words) < 4:
                    raise FileParseError("pre rows are: pre LABEL RE IM", line_no)
                # token-form labels contain spaces; the last two fields are Re, Im
                k = lines.convention.index_of_label(" ".join(words[1:-2]))
                amps[k] = amps.get(k, 0j) + complex(parse_real(words[-2]), parse_real(words[-1]))
                last_pre = line_no
            elif words[0] == "target":
                if len(words) != 4:
                    raise FileParseError("target rows are: target DESCRIPTOR RE IM", line_no)
                waiting.append((line_no, words[1], complex(parse_real(words[2]), parse_real(words[3]))))
            elif words[0] != "photons":
                raise FileParseError(f"unknown directive {words[0]!r}", line_no)
        except InputError as exc:
            raise FileParseError(str(exc), line_no) from None
        if lines.convention is not None:
            targets += [_target(lines.convention, *row) for row in waiting]
            waiting.clear()
    if lines.convention is None:
        raise FileParseError("missing photons line", 1)
    if not amps:
        raise FileParseError("no pre rows given", 1)
    if not targets:
        raise FileParseError("no target rows given", 1)
    try:
        pre = hilbert.make_ket(lines.convention, amps)
    except InputError as exc:
        raise FileParseError(str(exc), last_pre) from None
    if not pre.amplitudes:
        raise FileParseError("pre-state is the zero vector", last_pre)
    return pre, targets


def parse_problem_file(path) -> tuple[Ket, list[WeakValueTarget]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem_text(fh.read())
