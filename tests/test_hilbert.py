"""State space, labels, and operators.

Operator tests compare the package's sparse column construction against
dense Kronecker-product oracles from conftest; small dimensions compare
whole matrices, larger ones sample columns.
"""

import math

import numpy as np
import pytest

import cheshire as ch
from cheshire import hilbert
from cheshire.errors import InputError, ZeroNormError
from conftest import (
    basis_ket,
    dense_grin,
    dense_path_projector,
    dense_sigma,
    equal_up_to_phase,
    ket_vec,
    kron_chain,
    random_ket,
)

C1 = ch.BasisConvention(1)
C2 = ch.BasisConvention(2)


# ---------------------------------------------------------------------------
# labels and indices


def test_dimensions():
    assert C1.dim == 4
    assert C2.dim == 16
    assert ch.BasisConvention(5).dim == 4**5


@pytest.mark.parametrize(
    "label,index",
    [
        ("0100", 4),
        ("1000", 8),
        ("LRHH", 4),
        ("RLHH", 8),
        ("1001", 9),
        ("RLHV", 9),
        ("RLVH", 10),
        ("L1 R2 H1 H2", 4),
        ("R1 L2 H1 V2", 9),
        ("R_1 L_2 V_1 H_2", 10),
        ("H1 H2 L1 R2", 4),  # token order is free
    ],
)
def test_index_of_label_forms(label, index):
    assert C2.index_of_label(label) == index


def test_label_of_index_roundtrip():
    for k in range(16):
        assert C2.index_of_label(C2.label_of_index(k)) == k
        assert C2.index_of_label(C2.label_of_index(k, letters=True)) == k


def test_label_of_index_examples():
    assert C2.label_of_index(4) == "0100"
    assert C2.label_of_index(4, letters=True) == "LRHH"
    assert C1.label_of_index(2) == "10"


@pytest.mark.parametrize(
    "bad",
    ["010", "01000", "LRH", "XRHH", "L1 R2 H1", "L1 L1 H1 H2", "L3 R2 H1 H2", "L1 R2 H1 V3"],
)
def test_bad_labels_rejected(bad):
    with pytest.raises(InputError):
        C2.index_of_label(bad)


def test_photon_range_checked():
    with pytest.raises(InputError):
        ch.BasisConvention(0)
    with pytest.raises(InputError):
        C2.check_photon(3)


# ---------------------------------------------------------------------------
# kets


def test_make_ket_prunes_and_range_checks():
    state = ch.make_ket(C1, {0: 1.0, 3: 1e-15})
    assert state.support() == (0,)
    with pytest.raises(InputError):
        ch.make_ket(C1, {4: 1.0})


def test_amplitude_accepts_labels_and_indices():
    state = ch.make_ket(C2, {4: 0.25j})
    assert state.amplitude(4) == 0.25j
    assert state.amplitude("LRHH") == 0.25j
    assert state.amplitude("1000") == 0.0


def test_superpose_and_normalize():
    a = basis_ket(C1, "00")
    b = basis_ket(C1, "10")
    s = ch.superpose([(1j, a), (1.0, b)])
    assert s.norm() == pytest.approx(math.sqrt(2))
    n = ch.normalize(s)
    assert n.norm() == pytest.approx(1.0, abs=1e-12)
    assert n.amplitude(0) == pytest.approx(1j / math.sqrt(2))


def test_superpose_cancels_support():
    a = basis_ket(C1, "00")
    s = ch.superpose([(1.0, a), (-1.0, a)])
    assert s.support() == ()
    with pytest.raises(ZeroNormError):
        ch.normalize(s)


def test_superpose_rejects_mixed_conventions():
    with pytest.raises(InputError):
        ch.superpose([(1.0, basis_ket(C1, "00")), (1.0, basis_ket(C2, "0000"))])


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = random_ket(rng, 1)
        b = random_ket(rng, 1)
        assert ch.inner(a, b) == pytest.approx(ch.inner(b, a).conjugate())


def test_inner_matches_dense():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = random_ket(rng, 2)
        b = random_ket(rng, 2)
        assert ch.inner(a, b) == pytest.approx(complex(ket_vec(a).conj() @ ket_vec(b)))


def test_fidelity_and_phase_equality():
    rng = np.random.default_rng(13)
    state = random_ket(rng, 2)
    rotated = ch.superpose([(complex(np.exp(0.7j)), state)])
    assert ch.fidelity_up_to_phase(state, rotated) == pytest.approx(1.0)
    assert equal_up_to_phase(state, rotated)
    other = random_ket(rng, 2)
    assert not equal_up_to_phase(state, other)


def test_ket_dense_roundtrip():
    rng = np.random.default_rng(14)
    state = random_ket(rng, 2)
    again = ch.ket_from_dense(C2, state.to_dense())
    assert state == again


# ---------------------------------------------------------------------------
# operators vs dense oracles


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("arm", ["L", "R"])
def test_path_projector_dense(n, arm):
    conv = ch.BasisConvention(n)
    for photon in range(1, n + 1):
        got = ch.path_projector(conv, photon, arm).to_dense()
        np.testing.assert_allclose(got, dense_path_projector(n, photon, arm), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_dense(n):
    conv = ch.BasisConvention(n)
    for photon in range(1, n + 1):
        got = ch.circular_sigma_z(conv, photon).to_dense()
        np.testing.assert_allclose(got, dense_sigma(n, photon), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("arm", ["L", "R"])
def test_grin_dense(n, arm):
    conv = ch.BasisConvention(n)
    for photon in range(1, n + 1):
        got = ch.grin_observable(conv, photon, arm).to_dense()
        np.testing.assert_allclose(got, dense_grin(n, photon, arm), atol=1e-15)


@pytest.mark.parametrize("n", [4, 6])
def test_large_n_sampled_columns(n):
    """Dense matrices would be 4^n; check sampled columns against the oracle."""
    conv = ch.BasisConvention(n)
    rng = np.random.default_rng(15)
    photon = 2
    proj = ch.path_projector(conv, photon, "L")
    grin = ch.grin_observable(conv, photon, "R")
    for k in map(int, rng.integers(0, conv.dim, size=12)):
        bit = (k >> conv.bit_position(photon - 1)) & 1
        expect_proj = {k: 1.0} if bit == 0 else {}
        assert ch.apply(proj, ch.make_ket(conv, {k: 1})).amplitudes == expect_proj
        got = ch.apply(grin, ch.make_ket(conv, {k: 1})).amplitudes
        if bit == 1:
            pol_pos = conv.bit_position(conv.n_photons + photon - 1)
            flipped = k ^ (1 << pol_pos)
            sign = 1j if (k >> pol_pos) & 1 == 0 else -1j
            assert got == {flipped: sign}
        else:
            assert got == {}


def test_sigma_frozen_action():
    """Circular-basis sigma on linear polarization: H -> iV, V -> -iH."""
    sigma = ch.circular_sigma_z(C1, 1)
    h = basis_ket(C1, "00")
    v = basis_ket(C1, "01")
    assert ch.apply(sigma, h) == ch.make_ket(C1, {1: 1j})
    assert ch.apply(sigma, v) == ch.make_ket(C1, {0: -1j})


def test_projector_idempotent_and_complete():
    for n in (1, 2, 3):
        conv = ch.BasisConvention(n)
        for photon in range(1, n + 1):
            pl = ch.path_projector(conv, photon, "L")
            pr = ch.path_projector(conv, photon, "R")
            np.testing.assert_allclose(
                ch.op_compose(pl, pl).to_dense(), pl.to_dense(), atol=1e-15
            )
            np.testing.assert_allclose(
                ch.op_add(pl, pr).to_dense(), np.eye(conv.dim), atol=1e-15
            )


def test_grin_hermitian_and_commuting_factors():
    for photon in (1, 2):
        g = ch.grin_observable(C2, photon, "L").to_dense()
        np.testing.assert_allclose(g, g.conj().T, atol=1e-15)
        p = ch.path_projector(C2, photon, "L").to_dense()
        s = ch.circular_sigma_z(C2, photon).to_dense()
        np.testing.assert_allclose(s @ p, p @ s, atol=1e-15)


def test_sigma_squares_to_identity():
    s = ch.circular_sigma_z(C1, 1)
    np.testing.assert_allclose(ch.op_compose(s, s).to_dense(), np.eye(4), atol=1e-15)


def test_apply_linearity():
    rng = np.random.default_rng(16)
    obs = ch.grin_observable(C2, 1, "R")
    for _ in range(100):
        x = random_ket(rng, 2)
        y = random_ket(rng, 2)
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        left = ch.apply(obs, ch.superpose([(a, x), (b, y)]))
        right = ch.superpose([(a, ch.apply(obs, x)), (b, ch.apply(obs, y))])
        assert ch.superpose([(1.0, left), (-1.0, right)]).norm() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_from_dense_round_trip(n):
    conv = ch.BasisConvention(n)
    rng = np.random.default_rng(60 + n)
    mat = rng.standard_normal((conv.dim, conv.dim)) + 1j * rng.standard_normal((conv.dim, conv.dim))
    op = ch.operator_from_dense(conv, mat)
    assert np.max(np.abs(op.to_dense() - mat)) <= 1e-15 * np.max(np.abs(mat))
    keys = [(x, z) for x, z, _ in op.terms]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(c != 0 for *_, c in op.terms)


def test_operator_from_dense_keeps_only_nonzero_strings():
    """A named observable's matrix expands back into exactly its own strings, in (x, z) order."""
    grin = ch.grin_observable(C2, 2, "R")
    assert ch.operator_from_dense(C2, grin.to_dense()).terms == tuple(sorted(grin.terms))


@pytest.mark.parametrize("eps", [1e-13, 1e-11])
def test_dense_hermitian_defect_bounds_entrywise_defect(eps):
    rng = np.random.default_rng(48)
    for conv in (C1, C2):
        dim = conv.dim
        for _ in range(10):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mat = a + a.conj().T
            assert ch.operator_from_dense(conv, mat).hermitian_defect() == 0.0
            j, k = rng.integers(dim, size=2)
            mat[j, k] += eps * np.exp(2j * np.pi * rng.random())
            defect = ch.operator_from_dense(conv, mat).hermitian_defect()
            assert defect >= np.max(np.abs(mat - mat.conj().T))


def test_operator_from_dense_matches():
    rng = np.random.default_rng(17)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = ch.operator_from_dense(C1, mat)
    np.testing.assert_allclose(op.to_dense(), mat, atol=1e-15)
    vec = random_ket(rng, 1)
    np.testing.assert_allclose(
        ket_vec(ch.apply(op, vec)), mat @ ket_vec(vec), atol=1e-12
    )


# ---------------------------------------------------------------------------
# term form against the column closures it replaced
#
# Until the Pauli-string form, operators were closures from a column index to
# that column's entries, and WeakValueTarget checked Hermiticity on the dense
# matrix built from them. Those closures are the reference here.


def _ref_path(conv, photon, arm):
    want = "LR".index(arm)
    shift = conv.bit_position(photon - 1)
    return lambda k: {k: 1.0 + 0j} if (k >> shift) & 1 == want else {}


def _ref_sigma(conv, photon):
    mask = 1 << conv.bit_position(conv.n_photons + photon - 1)
    return lambda k: {k ^ mask: -1j if k & mask else 1j}


def _ref_grin(conv, photon, arm):
    path, sigma = _ref_path(conv, photon, arm), _ref_sigma(conv, photon)
    return lambda k: sigma(k) if path(k) else {}


def _ref_add(a, b):
    def col(k):
        out = dict(a(k))
        for j, v in b(k).items():
            out[j] = out.get(j, 0j) + v
        return out

    return col


def _ref_scale(c, a):
    cc = complex(c)
    return lambda k: {j: cc * v for j, v in a(k).items()}


def _ref_compose(a, b):
    def col(k):
        out = {}
        for m, v in b(k).items():
            for j, w in a(m).items():
                out[j] = out.get(j, 0j) + w * v
        return out

    return col


def _ref_rejects(col, dim):
    """The dense Hermiticity check WeakValueTarget made at dim <= 64."""
    dense = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        for j, v in col(k).items():
            if abs(v) >= 1e-14:
                dense[j, k] = v
    return np.max(np.abs(dense - dense.conj().T)) > 1e-12


def _operator_pairs(conv):
    """(operator, reference closure) for every named observable, every pairwise
    sum and product of them, and each of them scaled by 2, -0.5, 1j, 0.3+0.7j."""
    named = [(ch.identity_op(conv), lambda k: {k: 1.0 + 0j})]
    for photon in range(1, conv.n_photons + 1):
        named.append((ch.circular_sigma_z(conv, photon), _ref_sigma(conv, photon)))
        for arm in "LR":
            named.append((ch.path_projector(conv, photon, arm), _ref_path(conv, photon, arm)))
            named.append((ch.grin_observable(conv, photon, arm), _ref_grin(conv, photon, arm)))
    pairs = list(named)
    for i, (a, ref_a) in enumerate(named):
        pairs += [(ch.op_add(a, b), _ref_add(ref_a, ref_b)) for b, ref_b in named[i:]]
        pairs += [(ch.op_compose(a, b), _ref_compose(ref_a, ref_b)) for b, ref_b in named]
        pairs += [(ch.op_scale(c, a), _ref_scale(c, ref_a)) for c in (2, -0.5, 1j, 0.3 + 0.7j)]
    return pairs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_term_form_columns_equal_closures(n):
    conv = ch.BasisConvention(n)
    for op, ref in _operator_pairs(conv):
        for k in range(conv.dim):
            got = ch.apply(op, ch.make_ket(conv, {k: 1})).amplitudes
            assert got == {j: v for j, v in ref(k).items() if v != 0}, (op.name, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermiticity_verdicts_match_dense_check(n):
    conv = ch.BasisConvention(n)
    rejected = 0
    for op, ref in _operator_pairs(conv):
        for c in (1, 1 + 1e-13j, 1 + 1e-11j):
            want_reject = _ref_rejects(_ref_scale(c, ref), conv.dim)
            rejected += want_reject
            try:
                ch.WeakValueTarget(ch.op_scale(c, op), 0.5)
            except InputError:
                assert want_reject, op.name
            else:
                assert not want_reject, op.name
    assert rejected > 0


def test_dense_guard_blocks_large_operators():
    conv = ch.BasisConvention(6)  # dim 4096
    with pytest.raises(InputError):
        ch.path_projector(conv, 1, "L").to_dense()


# ---------------------------------------------------------------------------
# matrix elements against the applied state they avoid building
#
# hilbert.matrix_element sums over the terms and the ket's amplitudes without
# forming O|ket>; inner(bra, apply(op, ket)) is the reference.


def _sparse_ket(rng, conv):
    support = rng.choice(conv.dim, size=min(conv.dim, int(rng.integers(1, 13))), replace=False)
    amps = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return ch.make_ket(conv, {int(k): complex(a) for k, a in zip(support, amps)})


def _matrix_element_operators(conv):
    """Every named observable, sums, scalings and products of them, and a zero operator."""
    named = [ch.identity_op(conv)]
    for photon in range(1, conv.n_photons + 1):
        named.append(ch.circular_sigma_z(conv, photon))
        for arm in "LR":
            named += [ch.path_projector(conv, photon, arm), ch.grin_observable(conv, photon, arm)]
    ops = list(named)
    for a, b in zip(named, named[1:] + named[:1]):
        ops += [ch.op_add(a, b), ch.op_compose(a, b), ch.op_scale(0.3 - 0.7j, a)]
    ops.append(ch.op_add(ch.op_compose(named[-1], named[1]), ch.op_scale(-2.5, named[2])))
    path = ch.path_projector(conv, 1, "L")
    ops.append(ch.op_add(path, ch.op_scale(-1, path)))
    return ops


def _assert_matrix_element_matches(bra, op, ket, size=None):
    """`size` bounds the operator norm; by default sum |c|, as each Pauli string has norm 1."""
    got = hilbert.matrix_element(bra, op, ket)
    want = ch.inner(bra, ch.apply(op, ket))
    if size is None:
        size = sum(abs(c) for *_, c in op.terms)
    assert abs(got - want) <= 1e-12 * bra.norm() * ket.norm() * size, (op.name, got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matrix_element_matches_applied_state(n):
    rng = np.random.default_rng(40 + n)
    conv = ch.BasisConvention(n)
    ops = _matrix_element_operators(conv)
    assert any(not op.terms for op in ops)  # the zero operator
    for _ in range(40):
        bra, ket = _sparse_ket(rng, conv), _sparse_ket(rng, conv)
        for op in ops:
            _assert_matrix_element_matches(bra, op, ket)
        # same support on both sides, so most strings contribute
        _assert_matrix_element_matches(ch.superpose([(1.5j, ket)]), ops[-2], ket)
        _assert_matrix_element_matches(ket, ops[1], ket)


def test_matrix_element_of_dense_operator():
    rng = np.random.default_rng(46)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    op = ch.operator_from_dense(C2, mat)
    for _ in range(20):
        bra, ket = _sparse_ket(rng, C2), _sparse_ket(rng, C2)
        _assert_matrix_element_matches(bra, op, ket, np.linalg.norm(mat, 2))
        want = complex(ket_vec(bra).conj() @ mat @ ket_vec(ket))
        scale = bra.norm() * ket.norm() * np.linalg.norm(mat, 2)
        assert abs(hilbert.matrix_element(bra, op, ket) - want) <= 1e-12 * scale


def test_matrix_element_rejects_mixed_conventions():
    one, two = basis_ket(C1, "00"), basis_ket(C2, "0000")
    op1, op2 = ch.identity_op(C1), ch.identity_op(C2)
    for bra, op, ket in ((one, op2, two), (two, op1, two), (two, op2, one), (one, op1, two)):
        with pytest.raises(InputError, match="mixed conventions"):
            hilbert.matrix_element(bra, op, ket)


# ---------------------------------------------------------------------------
# frozen physical values


def test_two_cat_pre_state_frozen_values():
    """(|LR> + |RL>)/sqrt(2) with both photons H, against hand-computed actions."""
    psi0 = ch.make_ket(C2, {4: 1 / math.sqrt(2), 8: 1 / math.sqrt(2)})
    projected = ch.apply(ch.path_projector(C2, 1, "L"), psi0)
    assert projected == ch.make_ket(C2, {4: 1 / math.sqrt(2)})
    psif = ch.make_ket(
        C2, {4: -1j / math.sqrt(3), 9: 1 / math.sqrt(3), 10: 1 / math.sqrt(3)}
    )
    assert ch.inner(psif, psi0) == pytest.approx(1j / math.sqrt(6))


def test_single_cat_overlap_frozen():
    pre = ch.make_ket(C1, {0: 1j / math.sqrt(2), 2: 1 / math.sqrt(2)})
    post = ch.make_ket(C1, {0: 1 / math.sqrt(2), 3: 1 / math.sqrt(2)})
    assert ch.inner(post, pre) == pytest.approx(0.5j)
