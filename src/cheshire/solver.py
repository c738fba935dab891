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
solves at any photon count.

The solve is exact linear algebra: a rank-revealing pass (SVD cutoff 1e-10
relative to the largest singular value) fixes the numerical rank, a
deterministic reduced-row-echelon elimination with lexicographic pivot order
produces one nullspace basis vector per free column, and the returned state
is the feasible basis vector with minimal support (fewest nonzero
amplitudes), encoding the convention that unconstrained amplitudes are chosen
zero. Ties break toward the lowest free-column index.

The returned ket is unnormalized; its phase is fixed so the amplitude paired
with the pre-state's first support term is purely negative-imaginary when
possible, and its largest amplitude magnitude is scaled to 1.
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
from .expr import parse_real
from .hilbert import Ket, Operator

_RANK_CUTOFF_REL = 1e-10
_HERMITIAN_TOL = 1e-12
_SUPPORT_REL = 1e-12


@dataclass(frozen=True)
class WeakValueTarget:
    """One constraint: the observable's weak value must equal `target`.

    The observable must be Hermitian within 1e-12. The check reads the
    operator's Pauli coefficients (or its dense matrix), so it is exact and
    runs at every photon count.
    """

    observable: Operator
    target: complex

    def __post_init__(self):
        if self.observable.hermitian_defect() > _HERMITIAN_TOL:
            raise InputError("target observable is not Hermitian within 1e-12")


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows act on the conjugated post amplitudes at `columns`: matrix @ conj(m) = 0.

    `columns` are the active basis indices in ascending order, the support of
    the pre-state and of every (O_t - w_t)|pre>; matrix column j belongs to
    basis state columns[j]. The system has this shape at any photon count.
    """

    matrix: np.ndarray
    columns: tuple[int, ...]
    pre: Ket
    targets: tuple[WeakValueTarget, ...]


def assemble(pre: Ket, targets: Sequence[WeakValueTarget]) -> ConstraintSystem:
    """Row t is (O_t - w_t I)|pre> on the active columns."""
    if not targets:
        raise InputError("assemble needs at least one target")
    if pre.norm() == 0.0:
        raise InputError("pre-state is the zero vector")
    rows = []
    for tgt in targets:
        if tgt.observable.convention != pre.convention:
            raise InputError("target observable and pre-state use mixed conventions")
        rows.append(hilbert.superpose(
            [(1.0, hilbert.apply(tgt.observable, pre)), (-tgt.target, pre)]
        ))
    columns = tuple(sorted(set(pre.amplitudes).union(*(row.amplitudes for row in rows))))
    position = {k: j for j, k in enumerate(columns)}
    matrix = np.zeros((len(rows), len(columns)), dtype=complex)
    for t, row in enumerate(rows):
        for k, a in row.amplitudes.items():
            matrix[t, position[k]] = a
    return ConstraintSystem(matrix, columns, pre, tuple(targets))


def _rref_nullspace_basis(matrix: np.ndarray) -> list[np.ndarray]:
    """Deterministic nullspace basis, one vector per free column.

    Pivot columns are taken left to right; a column pivots if its largest
    remaining entry exceeds the SVD-derived cutoff. Basis vector for free
    column f: unit entry at f, pivot entries back-substituted.
    """
    rows, cols = matrix.shape
    work = matrix.astype(complex).copy()
    sigma_max = float(np.linalg.svd(work, compute_uv=False)[0]) if work.size and np.any(work) else 0.0
    cutoff = _RANK_CUTOFF_REL * sigma_max
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sub = np.abs(work[r:, c])
        best = int(np.argmax(sub))
        if sub[best] <= cutoff:
            continue
        if best != 0:
            work[[r, r + best]] = work[[r + best, r]]
        work[r] = work[r] / work[r, c]
        for rr in range(rows):
            if rr != r and work[rr, c] != 0:
                work[rr] = work[rr] - work[rr, c] * work[r]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        vec = np.zeros(cols, dtype=complex)
        vec[f] = 1.0
        for pr, pc in pivots:
            vec[pc] = -work[pr, f]
        basis.append(vec)
    return basis


def _support_size(vec: np.ndarray) -> int:
    peak = float(np.max(np.abs(vec)))
    return int(np.sum(np.abs(vec) > _SUPPORT_REL * peak))


def solve_post(system: ConstraintSystem) -> Ket:
    """Pick the minimal-support feasible nullspace vector and fix phase/scale."""
    basis = _rref_nullspace_basis(system.matrix)
    # every inactive basis state is a nonzero solution orthogonal to the
    # pre-state, so an empty active nullspace is infeasible only when no
    # basis state is inactive; otherwise it is vacuous
    if not basis and len(system.columns) == system.pre.convention.dim:
        raise InfeasibleTargetsError("the constraint system has no nonzero solution")
    pre_vec = np.array([system.pre.amplitudes.get(k, 0j) for k in system.columns])
    pre_norm = float(np.linalg.norm(pre_vec))
    best = None
    for idx, y in enumerate(basis):
        # y holds conj(post amplitudes); overlap <post|pre> = y . pre
        overlap = complex(np.dot(y, pre_vec))
        if abs(overlap) <= weakval.OVERLAP_THRESHOLD * float(np.linalg.norm(y)) * pre_norm:
            continue
        key = (_support_size(y), idx)
        if best is None or key < best[0]:
            best = (key, y)
    if best is None:
        raise VacuousSelectionError(
            "every solution of the constraint system is orthogonal to the pre-state"
        )
    m = best[1].conj()
    peak = float(np.max(np.abs(m)))
    m[np.abs(m) <= _SUPPORT_REL * peak] = 0.0
    for j, k in enumerate(system.columns):
        if k in system.pre.amplitudes and abs(m[j]) > 0:
            m = m * (-1j * abs(m[j]) / m[j])
            break
    m = m / float(np.max(np.abs(m)))
    return hilbert.make_ket(system.pre.convention, dict(zip(system.columns, m)))


def verify(pre: Ket, post: Ket, targets: Sequence[WeakValueTarget]) -> float:
    """Max over targets of |weak_value(O) - w| for the (pre, post) pair."""
    pair = weakval.PrePostPair(pre, post, pre.convention.n_photons)
    residual = 0.0
    for tgt in targets:
        value = weakval.weak_value(tgt.observable, pair)
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


def parse_problem_text(text: str) -> tuple[Ket, list[WeakValueTarget]]:
    convention = None
    amps: dict[int, complex] = {}
    raw_targets: list[tuple[str, complex, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        word = parts[0]
        if word == "photons":
            if convention is not None:
                raise FileParseError("duplicate photons line", line_no)
            if len(parts) != 2 or not parts[1].isdigit():
                raise FileParseError("photons needs one integer argument", line_no)
            try:
                convention = hilbert.BasisConvention(int(parts[1]))
            except InputError as exc:
                raise FileParseError(str(exc), line_no) from None
        elif word == "pre":
            if convention is None:
                raise FileParseError("photons must come before pre rows", line_no)
            if len(parts) < 4:
                raise FileParseError("pre rows are: pre LABEL RE IM", line_no)
            # token-form labels contain spaces; the last two fields are Re, Im
            try:
                k = convention.index_of_label(" ".join(parts[1:-2]))
                value = complex(parse_real(parts[-2]), parse_real(parts[-1]))
            except InputError as exc:
                raise FileParseError(str(exc), line_no) from None
            amps[k] = amps.get(k, 0j) + value
        elif word == "target":
            if len(parts) != 4:
                raise FileParseError("target rows are: target DESCRIPTOR RE IM", line_no)
            try:
                value = complex(parse_real(parts[2]), parse_real(parts[3]))
            except InputError as exc:
                raise FileParseError(str(exc), line_no) from None
            raw_targets.append((parts[1], value, line_no))
        else:
            raise FileParseError(f"unknown directive {word!r}", line_no)
    if convention is None:
        raise FileParseError("missing photons line", 1)
    if not amps:
        raise FileParseError("no pre rows given", 1)
    if not raw_targets:
        raise FileParseError("no target rows given", 1)
    pre = hilbert.make_ket(convention, amps)
    targets = []
    for descriptor, value, line_no in raw_targets:
        try:
            obs = weakval.observable_from_descriptor(convention, descriptor)
        except InputError as exc:
            raise FileParseError(str(exc), line_no) from None
        targets.append(WeakValueTarget(obs, value))
    return pre, targets


def parse_problem_file(path) -> tuple[Ket, list[WeakValueTarget]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem_text(fh.read())


def delta_targets(convention: hilbert.BasisConvention) -> list[WeakValueTarget]:
    """The 4n path/grin delta targets (odd photons path-left/grin-right)."""
    from . import scenarios

    sid = scenarios.ScenarioId("n_cat", n=convention.n_photons) if convention.n_photons >= 2 \
        else scenarios.ScenarioId("single")
    pattern = scenarios.expected_pattern(sid)
    targets = []
    for (kind, photon, arm), value in pattern.items():
        obs = weakval.observable_for(convention, kind, photon, arm)
        targets.append(WeakValueTarget(obs, complex(value)))
    return targets
