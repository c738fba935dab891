"""Sparse state-vector and operator algebra on tensor products of two-level factors.

Basis convention
----------------
An n-photon state lives on 2n two-level factors ordered as

    path_1 ... path_n  pol_1 ... pol_n

with encoding L -> 0, R -> 1 for path factors and H -> 0, V -> 1 for
polarization factors. A basis index k in [0, 4**n) is the 2n-bit binary
string read in factor order, most significant bit first, so for n = 2 the
label "0100" (photon 1 on the left arm, photon 2 on the right, both
horizontal) is index 4. Photon i's path bit is therefore 1 << (2n - i) and
its polarization bit 1 << (n - i). `BasisConvention` is the one place where
a photon number or a label becomes index bits; everything else asks it.

Labels are accepted in two forms: a compact 2n-character string over
{0, 1, L, R, H, V} ("0100", "LRHH", and mixtures), or whitespace-separated
per-factor tokens such as "L1 R2 H1 H2" (an optional underscore before the
photon number is allowed). Both name the same basis state.

Kets are sparse maps from basis index to a complex amplitude; amplitudes
with magnitude below PRUNE_THRESHOLD are dropped after every operation.
Operators are sums of Pauli strings on the 2n index bits, in the symplectic
(x-mask, z-mask) form of Aaronson & Gottesman (PRA 70, 052328, 2004): the
term (x, z, c) is c X^x Z^z, which sends |k> to c (-1)^popcount(k & z)
|k ^ x>. With p the path bit and m the polarization bit of one photon, the
named constructors build the path projectors (I +- Z_p)/2 (+ for L), the
circular polarization observable

    sigma_z = |up><up| - |down><down|,   up/down = (|H> +- i|V>)/sqrt(2)

which is Pauli Y_m = i X_m Z_m (sigma_z|H> = i|V>, sigma_z|V> = -i|H> in
the H/V basis), and their per-arm products Y_m (I +- Z_p)/2. Sums, scalings
and products stay in this form, so applying an operator, taking a matrix
element <bra|O|ket> or checking that it is Hermitian never depends on the
dimension 4**n. `operator_from_dense` expands a dense matrix into Pauli
strings once, at construction, so it too yields this one form.

Global phase is never silently normalized away; comparing two kets up to a
global phase is the separate operation `fidelity_up_to_phase`.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InputError, ZeroNormError

if TYPE_CHECKING:
    import numpy as np

PRUNE_THRESHOLD = 1e-14
# largest hermitian_defect() an observable may have (targets, pointer couplings)
HERMITIAN_TOL = 1e-12

_PATH_CHARS = {"0": 0, "1": 1, "L": 0, "R": 1}
_POL_CHARS = {"0": 0, "1": 1, "H": 0, "V": 1}
_TOKEN_FORM = re.compile(r"^([LRHV])_?([0-9]+)$")
_PATH_LETTERS = str.maketrans("01", "LR")
_POL_LETTERS = str.maketrans("01", "HV")

# to_dense guard: keeps accidental materialization of huge spaces out
_DENSE_DIM_LIMIT = 1024


@dataclass(frozen=True)
class BasisConvention:
    """Fixes the factor ordering and encoding for an n-photon space."""

    n_photons: int

    def __post_init__(self):
        if not isinstance(self.n_photons, int) or self.n_photons < 1:
            raise InputError(f"n_photons must be a positive integer, got {self.n_photons!r}")

    @property
    def dim(self) -> int:
        return 4**self.n_photons

    def photon_bits(self, photon: int) -> tuple[int, int]:
        """The path and polarization bit of one photon, as index masks."""
        n = self.n_photons
        if not 1 <= photon <= n:
            raise InputError(f"photon index {photon} out of range 1..{n}")
        return 1 << (2 * n - photon), 1 << (n - photon)

    def all_photon_bits(self) -> list[tuple[int, int]]:
        """`photon_bits` of photons 1..n in order, in one call."""
        n = self.n_photons
        return [(1 << (2 * n - i), 1 << (n - i)) for i in range(1, n + 1)]

    def index_of_label(self, label: str) -> int:
        n = self.n_photons
        text = label.strip()
        if len(text.split()) > 1:
            text = self._letters_of_tokens(text)
        elif len(text) != 2 * n:
            raise InputError(f"label {label!r} has length {len(text)}, expected {2 * n} for n={n}")
        index = 0
        for pos, ch in enumerate(text.upper()):
            table = _PATH_CHARS if pos < n else _POL_CHARS
            if ch not in table:
                kind = "path" if pos < n else "polarization"
                raise InputError(f"label {label!r}: character {ch!r} invalid for a {kind} factor")
            index = (index << 1) | table[ch]
        return index

    def _letters_of_tokens(self, text: str) -> str:
        """The compact 2n-letter form of a token label such as "L1 R2 H1 H2"."""
        n = self.n_photons
        letters: dict[int, str] = {}
        for token in text.split():
            m = _TOKEN_FORM.match(token.upper())
            if m is None:
                raise InputError(f"token {token!r} is not of the form L1/R2/H1/V2")
            letter, num = m.group(1), int(m.group(2))
            if not 1 <= num <= n:
                raise InputError(f"token {token!r}: photon index out of range 1..{n}")
            factor = num - 1 if letter in "LR" else n + num - 1
            if factor in letters:
                raise InputError(f"token {token!r} repeats an already specified factor")
            letters[factor] = letter
        if len(letters) != 2 * n:
            raise InputError(f"label {text!r} specifies {len(letters)} factors, expected {2 * n}")
        return "".join(letters[factor] for factor in range(2 * n))

    def label_of_index(self, index: int, letters: bool = False) -> str:
        if not 0 <= index < self.dim:
            raise InputError(f"basis index {index} out of range for dim {self.dim}")
        n = self.n_photons
        bits = format(index, f"0{2 * n}b")
        if not letters:
            return bits
        return bits[:n].translate(_PATH_LETTERS) + bits[n:].translate(_POL_LETTERS)


_TOO_LARGE = "amplitudes too large: the squared norm overflows"


def _prune(amplitudes: dict[int, complex]) -> dict[int, complex]:
    try:
        return {k: complex(v) for k, v in amplitudes.items() if abs(v) >= PRUNE_THRESHOLD}
    except OverflowError:  # abs() of a finite complex whose modulus exceeds a double
        raise InputError(_TOO_LARGE) from None


@dataclass(frozen=True)
class Ket:
    """Sparse complex amplitude vector over the labeled basis."""

    convention: BasisConvention
    amplitudes: dict[int, complex]

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.amplitudes))

    def amplitude(self, label_or_index) -> complex:
        k = label_or_index
        if isinstance(k, str):
            k = self.convention.index_of_label(k)
        return self.amplitudes.get(k, 0j)

    def to_dense(self) -> np.ndarray:
        import numpy as np

        vec = np.zeros(self.convention.dim, dtype=complex)
        for k, a in self.amplitudes.items():
            vec[k] = a
        return vec


def make_ket(convention: BasisConvention, amplitudes: dict[int, complex]) -> Ket:
    """Build a Ket from raw amplitudes, pruning and range checking them."""
    amps = _prune(amplitudes)
    dim = convention.dim
    for k in amps:
        if not 0 <= k < dim:
            raise InputError(f"basis index {k} out of range for dim {dim}")
    _refuse_overflow(amps)
    return Ket(convention, amps)


def _refuse_overflow(amplitudes: dict[int, complex]) -> dict[int, complex]:
    try:
        total = sum(abs(a) ** 2 for a in amplitudes.values())
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise InputError(_TOO_LARGE)
    return amplitudes


def ket_from_dense(convention: BasisConvention, vec: np.ndarray) -> Ket:
    if len(vec) != convention.dim:
        raise InputError(f"dense vector has length {len(vec)}, expected {convention.dim}")
    return make_ket(convention, {k: complex(v) for k, v in enumerate(vec) if v != 0})


def superpose(terms: Sequence[tuple[complex, Ket]]) -> Ket:
    """Linear combination sum_j c_j |ket_j>. All terms must share a convention."""
    if not terms:
        raise InputError("superpose needs at least one term")
    convention = terms[0][1].convention
    out: dict[int, complex] = {}
    for coeff, ket in terms:
        if ket.convention != convention:
            raise InputError("superpose terms use mixed conventions")
        for k, a in ket.amplitudes.items():
            out[k] = out.get(k, 0j) + coeff * a
    return make_ket(convention, out)


def inner(bra_side: Ket, ket_side: Ket) -> complex:
    """<bra|ket>, conjugate-linear in the first argument."""
    if bra_side.convention != ket_side.convention:
        raise InputError("inner product between mixed conventions")
    bra, ket = bra_side.amplitudes, ket_side.amplitudes
    keys = bra if len(bra) <= len(ket) else ket
    return complex(sum(bra[k].conjugate() * ket[k] for k in keys if k in bra and k in ket))


def normalize(state: Ket) -> Ket:
    """Scale to unit norm. Global phase is untouched."""
    n = state.norm()
    if n == 0.0:
        raise ZeroNormError("cannot normalize the zero vector")
    return make_ket(state.convention, {k: a / n for k, a in state.amplitudes.items()})


def fidelity_up_to_phase(a: Ket, b: Ket) -> float:
    """max over phases of |<a|e^{i phi} b>| after normalizing both: |<a_hat|b_hat>|."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("fidelity with the zero vector is undefined")
    return abs(inner(a, b)) / (na * nb)


@dataclass(frozen=True, eq=False)
class Operator:
    """Linear map as a sum of Pauli strings on the 2n index bits.

    `terms` holds (x, z, c) triples, each the string c X^x Z^z: Z^z
    multiplies |k> by (-1)^popcount(k & z), then X^x flips the bits of x,
    so the string sends |k> to c (-1)^popcount(k & z) |k ^ x>. The (x, z)
    pairs are distinct and no c is zero. Every named observable is one or
    two such strings, so nothing here depends on the dimension 4**n. A dense
    matrix is expanded once, by `operator_from_dense`, into up to 16^n
    strings; `to_dense` is guarded for small dimensions only.
    """

    convention: BasisConvention
    terms: tuple[tuple[int, int, complex], ...] = ()

    def hermitian_defect(self) -> float:
        """Bound on the entries of O - O^dagger: max over x of sum_z |d(x, z)|.

        (c X^x Z^z)^dagger = (-1)^popcount(x & z) conj(c) X^x Z^z, so O - O^dagger has
        coefficients d = c - conj(c) where popcount(x & z) is even and c + conj(c) where
        it is odd, zero exactly when O is Hermitian. Entry (j, k) of O - O^dagger is
        sum_z d(x, z) (-1)^popcount(k & z) with x = j ^ k, so the row sum bounds it, and
        every single |d| too.
        """
        rows: dict[int, float] = {}
        for x, z, c in self.terms:
            d = c + c.conjugate() if (x & z).bit_count() & 1 else c - c.conjugate()
            rows[x] = rows.get(x, 0.0) + abs(d)
        return max(rows.values(), default=0.0)

    def to_dense(self) -> np.ndarray:
        import numpy as np

        dim = self.convention.dim
        if dim > _DENSE_DIM_LIMIT:
            raise InputError(f"refusing to densify a dim-{dim} operator; limit {_DENSE_DIM_LIMIT}")
        k = np.arange(dim)
        odd = np.array([i.bit_count() & 1 for i in range(dim)], dtype=bool)
        mat = np.zeros((dim, dim), dtype=complex)
        for x, z, c in self.terms:  # the string sends |k> to +-c |k ^ x>
            mat[k ^ x, k] += np.where(odd[k & z], -c, c)
        mat[abs(mat) < PRUNE_THRESHOLD] = 0
        return mat


def apply(op: Operator, state: Ket) -> Ket:
    """Matrix-vector product O|state>, sparsity preserving."""
    if op.convention != state.convention:
        raise InputError("operator and state use mixed conventions")
    return make_ket(state.convention, _apply_amplitudes(op, state.amplitudes))


def _apply_amplitudes(op: Operator, amplitudes: dict[int, complex]) -> dict[int, complex]:
    """The amplitudes of O|state>, unpruned: `apply` without building a Ket."""
    out: dict[int, complex] = {}
    # Consecutive strings with the same x-mask (as in every named observable)
    # land on one row: sum their signed coefficients, then write once. The
    # zero-mask guards skip big-int work at large n.
    terms = op.terms
    first = terms[0][0] if terms else 0
    for k, a in amplitudes.items():
        row, v = first, 0j
        for x, z, c in terms:
            if x != row:
                if v:
                    j = k ^ row if row else k
                    out[j] = out.get(j, 0j) + v * a
                row, v = x, 0j
            v += -c if z and (k & z).bit_count() & 1 else c
        if v:
            j = k ^ row if row else k
            out[j] = out.get(j, 0j) + v * a
    return out


def matrix_element(bra: Ket, op: Operator, ket: Ket) -> complex:
    """<bra|O|ket>, conjugate-linear in bra, without building O|ket>.

    The string (x, z, c) contributes c (-1)^popcount(k & z) conj(bra[k ^ x]) ket[k]
    for every k in ket's support, so the sum costs one lookup in bra per
    amplitude and x-mask, builds no Ket and prunes nothing. As in `apply`,
    consecutive strings with the same x-mask are summed first, and zero masks
    skip the big-int XOR and AND.
    """
    if not bra.convention == op.convention == ket.convention:
        raise InputError("matrix element between mixed conventions")
    terms, amps = op.terms, bra.amplitudes
    first = terms[0][0] if terms else 0
    total = 0j
    for k, a in ket.amplitudes.items():
        row, v = first, 0j
        for x, z, c in terms:
            if x != row:
                if v and (b := amps.get(k ^ row if row else k)) is not None:
                    total += b.conjugate() * (v * a)
                row, v = x, 0j
            v += -c if z and (k & z).bit_count() & 1 else c
        if v and (b := amps.get(k ^ row if row else k)) is not None:
            total += b.conjugate() * (v * a)
    return total


def identity_op(convention: BasisConvention) -> Operator:
    return Operator(convention, ((0, 0, 1.0 + 0j),))


# +-1/2, the coefficient of Z_path in (I +- Z_path)/2, and i times it
_ARM_HALVES = {"L": (0.5 + 0j, 0.5j), "R": (-0.5 + 0j, complex(0.0, -0.5))}


def _arm_bits(convention: BasisConvention, photon: int, arm: str) -> tuple[int, int]:
    bits = convention.photon_bits(photon)
    if arm not in _ARM_HALVES:
        raise InputError(f"arm must be 'L' or 'R', got {arm!r}")
    return bits


def path_projector(convention: BasisConvention, photon: int, arm: str) -> Operator:
    """|arm><arm| on the path factor of one photon, identity elsewhere: (I +- Z_path)/2."""
    p, _ = _arm_bits(convention, photon, arm)
    return Operator(convention, ((0, 0, 0.5 + 0j), (0, p, _ARM_HALVES[arm][0])))


def circular_sigma_z(convention: BasisConvention, photon: int) -> Operator:
    """Circular polarization observable on one photon: Pauli Y = i X Z on its polarization bit.

    In the H/V basis this is [[0, -i], [i, 0]]: H maps to i V and V to -i H.
    Eigenvalues are exactly +1 and -1 on the circular basis states.
    """
    _, m = convention.photon_bits(photon)
    return Operator(convention, ((m, m, 1j),))


def grin_observable(convention: BasisConvention, photon: int, arm: str) -> Operator:
    """Product of the circular polarization observable and one arm's projector: Y (I +- Z_path)/2.

    The two act on disjoint factors of the same photon, so they commute and
    the product is Hermitian.
    """
    p, m = _arm_bits(convention, photon, arm)
    return Operator(convention, ((m, m, 0.5j), (m, m | p, _ARM_HALVES[arm][1])))


def _merged(terms: Iterable[tuple[int, int, complex]]) -> tuple[tuple[int, int, complex], ...]:
    """Sum the coefficients of equal (x, z) strings and drop the ones that come out 0."""
    merged: dict[tuple[int, int], complex] = {}
    for x, z, c in terms:
        merged[x, z] = merged.get((x, z), 0j) + c
    return tuple((x, z, c) for (x, z), c in merged.items() if c != 0)


def op_add(a: Operator, b: Operator) -> Operator:
    if a.convention != b.convention:
        raise InputError("operator sum between mixed conventions")
    return Operator(a.convention, _merged(a.terms + b.terms))


def op_scale(c: complex, a: Operator) -> Operator:
    c = complex(c)
    return Operator(a.convention, _merged((x, z, c * v) for x, z, v in a.terms))


def op_compose(a: Operator, b: Operator) -> Operator:
    """Operator product a @ b (apply b first).

    Z^z1 X^x2 = (-1)^popcount(z1 & x2) X^x2 Z^z1, so two strings multiply to
    the phased string c1 c2 (-1)^popcount(z1 & x2) X^(x1 ^ x2) Z^(z1 ^ z2).
    """
    if a.convention != b.convention:
        raise InputError("operator product between mixed conventions")
    products = (
        (x1 ^ x2, z1 ^ z2, -c1 * c2 if (z1 & x2).bit_count() & 1 else c1 * c2)
        for x1, z1, c1 in a.terms
        for x2, z2, c2 in b.terms
    )
    return Operator(a.convention, _merged(products))


def operator_from_dense(convention: BasisConvention, matrix: np.ndarray) -> Operator:
    """Pauli expansion of a dense matrix M: c(x, z) = sum_k (-1)^popcount(k & z) M[k ^ x, k] / dim.

    Row x gathers M[k ^ x, k] over k and one Walsh-Hadamard butterfly over k
    gives every z at once. The nonzero strings come out in ascending (x, z)
    order, so strings with one x-mask are consecutive, as `apply` wants.
    """
    import numpy as np

    dim = convention.dim
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (dim, dim):
        raise InputError(f"matrix shape {matrix.shape} does not match dim {dim}")
    k = np.arange(dim)
    coeffs = matrix[k ^ k[:, None], k]
    h = 1
    while h < dim:  # bit h of k: (a, b) -> (a + b, a - b)
        pairs = coeffs.reshape(dim, -1, 2, h)
        a, b = pairs[:, :, 0], pairs[:, :, 1]
        coeffs = np.stack((a + b, a - b), axis=2)
        h *= 2
    coeffs = coeffs.reshape(dim, dim) / dim
    terms = tuple((int(x), int(z), complex(coeffs[x, z])) for x, z in zip(*np.nonzero(coeffs)))
    return Operator(convention, terms)
