"""Post-selection synthesis from target weak values.

The solver's claim: given the pre state and targets w_t for observables
O_t, every valid post ket m satisfies <m|(O_t - w_t I)|pre> = 0, a
homogeneous linear system in conj(m). Tests check the constraint matrix
column structure, the reproduction of the known two-photon family across
the angle grid, failure modes, and randomized round-trips where targets
are first measured from a known pair and then fed back in.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest

import cheshire as ch
from cheshire import solver
from cheshire.errors import (
    CheshireError,
    FileParseError,
    InfeasibleTargetsError,
    InputError,
    VacuousSelectionError,
)
from conftest import basis_ket, delta_targets, equal_up_to_phase, ket_vec, random_ket

C1 = ch.BasisConvention(1)
C2 = ch.BasisConvention(2)
SQ2 = math.sqrt(2)


def delta_problem(theta, phi):
    pair = ch.general_two_cat(theta, phi)
    return pair, delta_targets(C2)


# ---------------------------------------------------------------------------
# constraint assembly


def test_constraint_matrix_shape_and_columns():
    """Eight rows; unknowns confined to six basis columns for the grid pre state."""
    pair, targets = delta_problem(math.pi / 4, 0.0)
    system = ch.assemble(pair.pre, targets)
    assert system.columns == (4, 5, 6, 8, 9, 10)
    assert system.matrix.shape == (8, 6)
    assert np.all(np.any(np.abs(system.matrix) > 1e-14, axis=0))


def test_identity_target_gives_zero_row():
    """(I, 1) constrains nothing: its row vanishes identically."""
    pre = ch.two_cat().pre
    system = ch.assemble(pre, [ch.WeakValueTarget(ch.identity_op(C2), 1.0)])
    np.testing.assert_allclose(system.matrix, 0.0, atol=1e-15)


def test_non_hermitian_observable_rejected():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(InputError):
        ch.WeakValueTarget(ch.operator_from_dense(C1, mat), 0.5)


@pytest.mark.parametrize("n", [3, 4, 40])
def test_non_hermitian_observable_rejected_at_every_n(n):
    """i P_L is anti-Hermitian; the check must not stop at some dimension."""
    obs = ch.op_scale(1j, ch.path_projector(ch.BasisConvention(n), 1, "L"))
    with pytest.raises(InputError, match="not Hermitian"):
        ch.WeakValueTarget(obs, 1)


def test_named_observables_accepted_at_forty_photons():
    conv = ch.BasisConvention(40)

    def named(photons):
        return [ch.identity_op(conv)] + [
            obs
            for photon in photons
            for obs in [ch.circular_sigma_z(conv, photon)]
            + [build(conv, photon, arm) for build in (ch.path_projector, ch.grin_observable) for arm in "LR"]
        ]

    for obs in named(range(1, 41)):
        ch.WeakValueTarget(obs, 0.5)
    few = named((1, 2, 40))
    for a in few:
        for b in few:
            ch.WeakValueTarget(ch.op_add(a, b), 0.5)
            ch.WeakValueTarget(ch.op_compose(a, b), 0.5)


# ---------------------------------------------------------------------------
# reproduction of the known family


def test_two_cat_exact_reproduction():
    pair, targets = delta_problem(math.pi / 4, 0.0)
    post = ch.solve_post(ch.assemble(pair.pre, targets))
    assert sorted(post.amplitudes) == [4, 9, 10]
    assert post.amplitudes[4] == pytest.approx(-1j, abs=1e-12)
    assert post.amplitudes[9] == pytest.approx(1.0, abs=1e-12)
    assert post.amplitudes[10] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, 3 * math.pi / 8])
@pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
def test_grid_reproduction_up_to_phase(theta, phi):
    pair, targets = delta_problem(theta, phi)
    post = ch.solve_post(ch.assemble(pair.pre, targets))
    overlap = abs(ch.inner(ch.normalize(post), ch.normalize(pair.post)))
    assert overlap >= 1 - 1e-10
    assert ch.verify(pair.pre, post, targets) < 1e-10


def test_solution_support_is_minimal():
    pair, targets = delta_problem(math.pi / 4, 0.0)
    post = ch.solve_post(ch.assemble(pair.pre, targets))
    assert len(post.support()) == 3


@pytest.mark.parametrize("n", [7, 12])
def test_delta_targets_beyond_dense_dimensions(n):
    """The n-photon deltas rebuild n_cat(n).post where 4**n columns could not be eliminated."""
    pair = ch.n_cat(n)
    targets = delta_targets(pair.convention)
    post = ch.solve_post(ch.assemble(pair.pre, targets))
    assert ch.verify(pair.pre, post, targets) < 1e-10
    assert ch.fidelity_up_to_phase(post, pair.post) >= 1 - 1e-12


def test_perturbed_target_breaks_verification():
    """A 1e-3 dent in one target moves the verify residual well above 1e-5."""
    pair, targets = delta_problem(math.pi / 4, 0.0)
    post = ch.solve_post(ch.assemble(pair.pre, targets))
    dented = list(targets)
    dented[0] = ch.WeakValueTarget(dented[0].observable, dented[0].target + 1e-3)
    assert ch.verify(pair.pre, post, dented) > 1e-5


def test_single_photon_reproduction():
    """n=1 deltas rebuild the single-photon post state up to phase."""
    pair = ch.single()
    targets = [
        ch.WeakValueTarget(ch.path_projector(C1, 1, "L"), 1.0),
        ch.WeakValueTarget(ch.path_projector(C1, 1, "R"), 0.0),
        ch.WeakValueTarget(ch.grin_observable(C1, 1, "L"), 0.0),
        ch.WeakValueTarget(ch.grin_observable(C1, 1, "R"), 1.0),
    ]
    post = ch.solve_post(ch.assemble(pair.pre, targets))
    assert abs(ch.inner(ch.normalize(post), pair.post)) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# failure modes


def test_contradictory_targets_are_vacuous():
    """Pi_L1 -> 1 and -> 0 force <m|pre> = 0: solutions exist but are unusable."""
    pre = ch.two_cat().pre
    targets = [
        ch.WeakValueTarget(ch.path_projector(C2, 1, "L"), 1.0),
        ch.WeakValueTarget(ch.path_projector(C2, 1, "L"), 0.0),
    ]
    with pytest.raises(VacuousSelectionError):
        ch.solve_post(ch.assemble(pre, targets))


def test_full_rank_system_is_infeasible():
    """Random Hermitian targets on every basis direction leave no nullspace."""
    rng = np.random.default_rng(31)
    pre = random_ket(rng, 1)
    targets = []
    for _ in range(8):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        herm = (raw + raw.conj().T) / 2
        targets.append(
            ch.WeakValueTarget(ch.operator_from_dense(C1, herm), complex(rng.standard_normal()))
        )
    system = ch.assemble(pre, targets)
    if np.linalg.matrix_rank(system.matrix) == 4:
        with pytest.raises(InfeasibleTargetsError):
            ch.solve_post(system)
    else:  # pragma: no cover - astronomically unlikely with this seed
        pytest.skip("random system left a nullspace")


def test_identity_only_problem_echoes_pre_ray():
    """Targeting (I, 1) admits every vector; the solver returns a valid post."""
    pre = ch.make_ket(C1, {1: 1.0})
    post = ch.solve_post(ch.assemble(pre, [ch.WeakValueTarget(ch.identity_op(C1), 1.0)]))
    assert ch.verify(pre, post, [ch.WeakValueTarget(ch.identity_op(C1), 1.0)]) < 1e-12
    assert abs(ch.inner(post, pre)) > 1e-10


# ---------------------------------------------------------------------------
# randomized round-trips


def test_random_roundtrip():
    """Measure targets from a random valid pair, re-solve, land on consistent values."""
    rng = np.random.default_rng(32)
    done = 0
    while done < 100:
        n = int(rng.integers(1, 3))
        conv = ch.BasisConvention(n)
        pre = random_ket(rng, n)
        post = random_ket(rng, n)
        pair = ch.pair_from_states(pre, post)
        if abs(pair.overlap()) < 1e-3:
            continue
        targets = []
        for photon in range(1, n + 1):
            for kind in ("path", "grin"):
                for arm in ("L", "R"):
                    obs = ch.observable_for(conv, kind, photon, arm)
                    targets.append(ch.WeakValueTarget(obs, ch.weak_value(obs, pair)))
        solved = ch.solve_post(ch.assemble(pre, targets))
        assert ch.verify(pre, solved, targets) < 1e-8
        done += 1


def test_nullspace_membership():
    """Conjugated solution amplitudes always annihilate the constraint matrix."""
    rng = np.random.default_rng(33)
    for _ in range(100):
        pre = random_ket(rng, 1)
        obs = ch.path_projector(C1, 1, "L")
        pair_target = complex(rng.standard_normal(), rng.standard_normal())
        system = ch.assemble(pre, [ch.WeakValueTarget(obs, pair_target)])
        try:
            post = ch.solve_post(system)
        except (VacuousSelectionError, InfeasibleTargetsError):
            continue
        assert set(post.amplitudes) <= set(system.columns)
        vec = np.array([post.amplitude(k) for k in system.columns])
        np.testing.assert_allclose(system.matrix @ vec.conj(), 0.0, atol=1e-10)


def test_scale_invariance_of_solution():
    """Scaling the pre state leaves the solved ray unchanged."""
    pair, targets = delta_problem(math.pi / 8, 1.0)
    post_a = ch.solve_post(ch.assemble(pair.pre, targets))
    scaled = ch.superpose([(3.7j, pair.pre)])
    post_b = ch.solve_post(ch.assemble(scaled, targets))
    assert equal_up_to_phase(ch.normalize(post_a), ch.normalize(post_b), tol=1e-10)


# ---------------------------------------------------------------------------
# problem files


GOOD_PROBLEM = """\
# delta targets for the symmetric two-photon state
photons 2
pre 0100 1/sqrt(2) 0
pre 1000 1/sqrt(2) 0
target path:1:L 1 0
target path:1:R 0 0
target grin:1:L 0 0
target grin:1:R 1 0
target path:2:L 0 0
target path:2:R 1 0
target grin:2:L 1 0
target grin:2:R 0 0
"""


def test_parse_problem_text():
    pre, targets = solver.parse_problem_text(GOOD_PROBLEM)
    assert pre.amplitudes == pytest.approx({4: 1 / SQ2, 8: 1 / SQ2})
    assert len(targets) == 8
    post = ch.solve_post(ch.assemble(pre, targets))
    assert equal_up_to_phase(ch.normalize(post), ch.two_cat().post, tol=1e-10)


def test_parse_problem_letter_labels_and_expressions():
    text = "photons 1\npre L1 H1 0 1/sqrt(2)\npre R1 H1 cos(0) 0\ntarget id 1 0\n"
    pre, targets = solver.parse_problem_text(text)
    assert pre.amplitudes == pytest.approx({0: 1j / SQ2, 2: 1.0})
    assert len(targets) == 1


@pytest.mark.parametrize(
    "text,line",
    [
        ("pre 00 1 0\n", 1),  # photons must come first
        ("photons 2\nphotons 2\n", 2),
        ("photons 0\n", 1),
        ("photons 1\npre 00 1 0\ntarget path:1 1 0\n", 3),
        ("photons 1\npre 000 1 0\n", 2),
        ("photons 1\npre 00 bogus 0\n", 2),
        ("photons 1\nwhatever 1\n", 2),
        ("photons 1\npre 00 1\n", 2),
        ("photons ²\n", 1),  # a digit to str.isdigit, not to int()
        ("photons \u0661\npre 00 1 0\ntarget path:1:L 1 0\n", 1),  # int() reads these three as 1
        ("photons +1\npre 00 1 0\ntarget path:1:L 1 0\n", 1),
        ("photons 0_1\npre 00 1 0\ntarget path:1:L 1 0\n", 1),
        ("photons 1\npre 00 1 0\ntarget path:\u0661:L 1 0\n", 3),
        ("photons 1\npre 00 1 0\ntarget path:+1:L 1 0\n", 3),
        ("photons 1\npre 00 1 0\ntarget path:0_1:L 1 0\n", 3),
        ("photons 1\npre 00 1 0\ntarget sigma:+1 1 0\n", 3),
        # the first bad line in file order, wherever the photons line is
        ("photons 1\npre 00 1 0\ntarget bogus 1 0\nwhatever\n", 3),
        ("target bogus 1 0\nphotons 1\npre 00 1 0\nwhatever\n", 1),
        ("target bogus 1 0\nphotons 1\nphotons 1\n", 1),
        ("photons 1\ntarget bogus 1 0\nphotons 1\n", 2),
        ("target path:1:L 1 0\ntarget bogus 1 0\nphotons 1\nwhatever\n", 2),
        # rows that parse but sum to no usable pre-state: the last pre row
        ("photons 1\npre 00 1e200 0\ntarget path:1:L 1 0\n", 2),
        ("photons 1\npre 00 0 0\ntarget path:1:L 1 0\n", 2),
        ("photons 1\npre 00 1e154 0\ntarget path:1:L 1 0\npre 01 1e154 0\n", 4),
        ("photons 1\npre 00 1 0\npre 00 -1 0\ntarget path:1:L 1 0\n", 3),
    ],
)
def test_parse_problem_errors_carry_line_numbers(text, line):
    with pytest.raises(FileParseError) as err:
        solver.parse_problem_text(text)
    assert err.value.line_no == line
    assert f"line {line}" in str(err.value)


def test_parse_problem_requires_sections():
    with pytest.raises(FileParseError):
        solver.parse_problem_text("photons 1\ntarget id 1 0\n")
    with pytest.raises(FileParseError):
        solver.parse_problem_text("photons 1\npre 00 1 0\n")


def test_parse_problem_accepts_targets_before_photons():
    text = "target path:1:L 1 0\nphotons 1\npre 00 1 0\n"
    pre, targets = solver.parse_problem_text(text)
    assert pre.amplitudes == {0: 1.0}
    assert [(t.observable.terms, t.target) for t in targets] == [
        (ch.path_projector(ch.BasisConvention(1), 1, "L").terms, 1.0)
    ]


def test_parse_problem_comments_as_in_circuit_files():
    """A trailing comment may follow any directive, the photons line included."""
    commented = "# symmetric pair\n\n" + GOOD_PROBLEM.replace("photons 2", "photons 2  # two photons").replace(
        "target path:1:L 1 0", "target path:1:L 1 0# path"
    )
    (pre, targets), (want_pre, want_targets) = (solver.parse_problem_text(t) for t in (commented, GOOD_PROBLEM))
    assert pre == want_pre
    assert [(t.observable.terms, t.target) for t in targets] == [(t.observable.terms, t.target) for t in want_targets]


def test_parse_problem_file_missing(tmp_path):
    with pytest.raises(OSError):
        solver.parse_problem_file(tmp_path / "missing.problem")


# ---------------------------------------------------------------------------
# the dense solve as a reference: one constraint column per basis state, all
# 4**n of them, one nullspace vector per free column, and the answer read
# back through a dense vector


def reference_row_echelon(matrix):
    """Reduced row echelon form, clearing each pivot column one row at a time."""
    rows, cols = matrix.shape
    work = matrix.astype(complex).copy()
    sigma_max = float(np.linalg.svd(work, compute_uv=False)[0]) if work.size and np.any(work) else 0.0
    cutoff = 1e-10 * sigma_max
    pivots = []
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
        pivots.append(c)
        r += 1
    return work[:r], np.array(pivots, dtype=int)


def dense_nullspace_basis(matrix):
    echelon, pivots = reference_row_echelon(matrix)
    basis = []
    for f in range(matrix.shape[1]):
        if f in pivots:
            continue
        vec = np.zeros(matrix.shape[1], dtype=complex)
        vec[f] = 1.0
        vec[pivots] = -echelon[:, f]
        basis.append(vec)
    return basis


def dense_solve_post(pre, targets):
    matrix = np.zeros((len(targets), pre.convention.dim), dtype=complex)
    for t, tgt in enumerate(targets):
        shifted = ch.superpose([(1.0, ch.apply(tgt.observable, pre)), (-tgt.target, pre)])
        for k, a in shifted.amplitudes.items():
            matrix[t, k] = a
    basis = dense_nullspace_basis(matrix)
    if not basis:
        raise InfeasibleTargetsError("the constraint system has no nonzero solution")
    pre_vec = ket_vec(pre)
    pre_norm = float(np.linalg.norm(pre_vec))
    best = None
    for idx, y in enumerate(basis):
        overlap = complex(np.dot(y, pre_vec))
        if abs(overlap) <= 1e-10 * float(np.linalg.norm(y)) * pre_norm:
            continue
        peak = float(np.max(np.abs(y)))
        key = (int(np.sum(np.abs(y) > 1e-12 * peak)), idx)
        if best is None or key < best[0]:
            best = (key, y)
    if best is None:
        raise VacuousSelectionError(
            "every solution of the constraint system is orthogonal to the pre-state"
        )
    m = best[1].conj()
    peak = float(np.max(np.abs(m)))
    m[np.abs(m) <= 1e-12 * peak] = 0.0
    for k in sorted(pre.amplitudes):
        if abs(m[k]) > 0:
            m = m * (-1j * abs(m[k]) / m[k])
            break
    m = m / float(np.max(np.abs(m)))
    return ch.ket_from_dense(pre.convention, m)


def solved_or_error(solve):
    try:
        return solve().amplitudes
    except CheshireError as exc:
        return type(exc), str(exc)


def delta_case(n):
    pre = ch.n_cat(n).pre if n >= 2 else ch.single().pre
    return pre, delta_targets(ch.BasisConvention(n))


def random_problem(seed, n):
    """Sparse pre-state; path, grin and sigma targets, measured from a pair or set to 0/1."""
    rng = np.random.default_rng(seed)
    conv = ch.BasisConvention(n)

    def sparse_ket():
        size = int(rng.integers(1, min(conv.dim, 6) + 1))
        support = rng.choice(conv.dim, size=size, replace=False)
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return ch.make_ket(conv, {int(k): complex(a) for k, a in zip(support, amps)})

    pre = sparse_ket()
    observables = []
    for _ in range(int(rng.integers(1, 2 * n + 1))):
        photon = int(rng.integers(1, n + 1))
        kind = ("path", "grin", "sigma")[int(rng.integers(3))]
        if kind == "sigma":
            observables.append(ch.circular_sigma_z(conv, photon))
        else:
            observables.append(ch.observable_for(conv, kind, photon, "LR"[int(rng.integers(2))]))
    pair = ch.pair_from_states(pre, sparse_ket())
    if rng.random() < 0.5 and abs(pair.overlap()) > 1e-3:
        values = [ch.weak_value(obs, pair) for obs in observables]
    else:
        values = [complex(int(rng.integers(2))) for _ in observables]
    return pre, [ch.WeakValueTarget(obs, w) for obs, w in zip(observables, values)]


def dense_pre_case(seed, n, kind):
    """Dense random pre-state, so every basis state is an active column.

    kind "delta" takes the 4n delta targets; kind "random" takes the
    observables of random_problem(seed, n), each set to 0 or 1.
    """
    rng = np.random.default_rng(seed)
    pre = random_ket(rng, n)
    if kind == "delta":
        return pre, delta_targets(pre.convention)
    _, targets = random_problem(seed, n)
    return pre, [ch.WeakValueTarget(t.observable, complex(int(rng.integers(2)))) for t in targets]


REFERENCE_CASES = {f"delta(n={n})": (lambda n=n: delta_case(n)) for n in range(1, 7)}
REFERENCE_CASES |= {
    f"dense-pre-{kind}(n={n},seed={seed})": (lambda s=seed, n=n, k=kind: dense_pre_case(s, n, k))
    for n in range(1, 6)
    for kind in ("delta", "random")
    for seed in range(5)
}
REFERENCE_CASES |= {
    f"general({theta:.3f},{phi:.3f})": (
        lambda t=theta, p=phi: (ch.general_two_cat(t, p).pre, delta_targets(C2))
    )
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8)
    for phi in (0.0, 1.0, math.pi)
}
REFERENCE_CASES |= {
    "identity-only(n=1)": lambda: (
        ch.make_ket(C1, {1: 1.0}), [ch.WeakValueTarget(ch.identity_op(C1), 1.0)]
    ),
    "identity-only(n=2)": lambda: (
        ch.two_cat().pre, [ch.WeakValueTarget(ch.identity_op(C2), 1.0)]
    ),
    # rank 4 on all four columns: no solution at all
    "full-rank": lambda: (random_ket(np.random.default_rng(31), 1), [
        ch.WeakValueTarget(ch.observable_for(C1, kind, 1, arm), w)
        for (kind, arm), w in zip(
            [("path", "L"), ("path", "R"), ("grin", "L"), ("grin", "R")], [0.3, 0.4 + 0.2j, -0.5, 1.5]
        )
    ]),
    "contradictory": lambda: (ch.two_cat().pre, [
        ch.WeakValueTarget(ch.path_projector(C2, 1, "L"), 1.0),
        ch.WeakValueTarget(ch.path_projector(C2, 1, "L"), 0.0),
    ]),
    # full rank on its one active column but not on all sixteen: vacuous, not infeasible
    "rank-equals-columns": lambda: (
        basis_ket(C2, "0000"), [ch.WeakValueTarget(ch.path_projector(C2, 1, "L"), 0.0)]
    ),
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_solve_matches_dense_reference(name):
    """Posts equal the dense solve's amplitude for amplitude; errors match in type and text."""
    pre, targets = REFERENCE_CASES[name]()
    got = solved_or_error(lambda: ch.solve_post(ch.assemble(pre, targets)))
    assert got == solved_or_error(lambda: dense_solve_post(pre, targets))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_solve_matches_dense_reference_on_random_problems(n):
    outcomes = set()
    for seed in range(40):
        pre, targets = random_problem(1000 * n + seed, n)
        got = solved_or_error(lambda: ch.solve_post(ch.assemble(pre, targets)))
        assert got == solved_or_error(lambda: dense_solve_post(pre, targets)), seed
        outcomes.add(got[0] if isinstance(got, tuple) else "post")
    assert "post" in outcomes


def test_dense_pre_state_solve_memory():
    """A dense n = 6 pre-state activates all 4096 columns. The solve keeps
    24 x 4096 echelon entries, not one 4096-entry vector per free column,
    which would take about 260 MiB."""
    pre, targets = dense_pre_case(6, 6, "delta")
    system = ch.assemble(pre, targets)
    tracemalloc.start()
    try:
        ch.solve_post(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# the Ket-based pipeline as a reference: each row a superposed Ket of O|pre>
# and -w|pre>, one weak_value per target in verify, the pivot column cleared
# one row at a time, and the Hermitian check by powers of -1. The solver's
# rows, echelon, post and residual must be the same doubles, signed zeros
# included, and its errors the same type and text.


def bits(value):
    return struct.pack("dd", value.real, value.imag)


def reference_assemble(pre, targets):
    rows = [ch.superpose([(1.0, ch.apply(t.observable, pre)), (-t.target, pre)]) for t in targets]
    columns = tuple(sorted(set(pre.amplitudes).union(*(row.amplitudes for row in rows))))
    position = {k: j for j, k in enumerate(columns)}
    matrix = np.zeros((len(rows), len(columns)), dtype=complex)
    for t, row in enumerate(rows):
        for k, a in row.amplitudes.items():
            matrix[t, position[k]] = a
    return solver.ConstraintSystem(matrix, columns, pre)


def reference_verify(pre, post, targets):
    pair = ch.PrePostPair(pre, post, pre.convention.n_photons)
    residual = 0.0
    for tgt in targets:
        residual = max(residual, abs(ch.weak_value(tgt.observable, pair) - tgt.target))
    return residual


def reference_hermitian_defect(op):
    rows = {}
    for x, z, c in op.terms:
        rows[x] = rows.get(x, 0.0) + abs(c - (-1) ** (x & z).bit_count() * c.conjugate())
    return max(rows.values(), default=0.0)


def synthesis_record(pre, targets, assemble, verify):
    """Bytes of the columns, matrix, echelon, post and residual, up to the first error."""
    record = []
    try:
        system = assemble(pre, targets)
        record += [system.columns, system.matrix.shape, [bits(a) for a in system.matrix.ravel()]]
        echelon, pivots = solver._row_echelon(system.matrix)
        record += [echelon.shape, pivots.tolist(), [bits(a) for a in echelon.ravel()]]
        post = ch.solve_post(system)
        record.append([(k, bits(a)) for k, a in post.amplitudes.items()])
        record.append(struct.pack("d", verify(pre, post, targets)))
    except CheshireError as exc:
        record.append((type(exc), str(exc)))
    return record


def signed_zero_part(rng, near_one=False):
    """+-0.0, +-1 or a normal draw; with near_one also 1 - 2**-52, so that rows cancel to below the prune threshold."""
    parts = (0.0, -0.0, 1.0, -1.0, float(rng.standard_normal()), 1.0 - 2.0**-52)
    return parts[int(rng.integers(6 if near_one else 5))]


def signed_zero_problem(seed, n):
    """Sparse pre-state and mixed targets whose amplitude and target parts are often +-0.0 or +-1.

    Observables are named ones, sums and products of two (so x-masks alternate
    within one operator), and complex multiples; targets are weak values
    measured from a pair or drawn like the amplitudes, or as 1 - 2**-52.
    """
    rng = np.random.default_rng(seed)
    conv = ch.BasisConvention(n)

    def sparse_ket():
        size = int(rng.integers(1, min(conv.dim, 5) + 1))
        amps = {}
        for k in rng.choice(conv.dim, size=size, replace=False):
            a = 0j
            while a == 0:
                a = complex(signed_zero_part(rng), signed_zero_part(rng))
            amps[int(k)] = a
        return ch.make_ket(conv, amps)

    def named():
        photon = int(rng.integers(1, n + 1))
        kind = ("path", "grin", "sigma", "id")[int(rng.integers(4))]
        if kind == "sigma":
            return ch.circular_sigma_z(conv, photon)
        if kind == "id":
            return ch.identity_op(conv)
        return ch.observable_for(conv, kind, photon, "LR"[int(rng.integers(2))])

    def observable():
        shape = int(rng.integers(4))
        if shape == 1:
            return ch.op_add(named(), named())
        if shape == 2:
            a, b = named(), named()
            return ch.op_add(ch.op_compose(a, b), ch.op_compose(b, a))
        if shape == 3:
            return ch.op_scale(signed_zero_part(rng) or 1.0, named())
        return named()

    pre, post = sparse_ket(), sparse_ket()
    observables = [observable() for _ in range(int(rng.integers(1, 2 * n + 2)))]
    pair = ch.pair_from_states(pre, post)
    measured = rng.random() < 0.5 and abs(pair.overlap()) > 1e-3
    values = [
        ch.weak_value(obs, pair) if measured else complex(signed_zero_part(rng, True), signed_zero_part(rng, True))
        for obs in observables
    ]
    return pre, [ch.WeakValueTarget(obs, w) for obs, w in zip(observables, values)]


BITWISE_PROBLEMS = {
    "delta": lambda: [delta_case(n) for n in (*range(2, 13), 40)],
    "general_two_cat": lambda: [
        (ch.general_two_cat(theta, phi).pre, delta_targets(C2))
        for theta in (0.01, 0.3, math.pi / 4, 1.2, math.pi / 2 - 0.01)
        for phi in (0.0, 0.4, math.pi / 2, 3.0, math.pi, 4.4, 6.2)
    ],
    "random": lambda: [signed_zero_problem(700 + seed, 1 + seed % 6) for seed in range(120)],
    "dense-pre": lambda: [
        dense_pre_case(seed, n, kind) for n in (3, 4, 5) for kind in ("delta", "random") for seed in range(2)
    ],
}


@pytest.mark.parametrize("family", BITWISE_PROBLEMS)
def test_synthesis_equals_ket_based_reference_bitwise(family, monkeypatch):
    outcomes = set()
    for pre, targets in BITWISE_PROBLEMS[family]():
        got = synthesis_record(pre, targets, ch.assemble, ch.verify)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_row_echelon", reference_row_echelon)
            want = synthesis_record(pre, targets, reference_assemble, reference_verify)
        assert got == want, (family, pre.convention.n_photons)
        outcomes.add(len(got))
    assert 8 in outcomes  # some problems reach the residual


def operators_for_defect():
    ops = []
    for n in (1, 2, 3, 40):
        conv = ch.BasisConvention(n)
        named = [ch.identity_op(conv)] + [
            obs
            for photon in {1, n}
            for obs in [ch.circular_sigma_z(conv, photon)]
            + [build(conv, photon, arm) for build in (ch.path_projector, ch.grin_observable) for arm in "LR"]
        ]
        ops += named
        ops += [ch.op_compose(a, b) for a in named for b in named]
        ops += [ch.op_scale(s, ch.op_add(a, b)) for a, b in zip(named, named[1:]) for s in (1j, -0.5, 2 - 3j)]
    rng = np.random.default_rng(41)
    for n in (1, 2):
        dim = 4**n
        for _ in range(6):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for matrix in (raw, (raw + raw.conj().T) / 2, (raw - raw.conj().T) / 2):
                ops.append(ch.operator_from_dense(ch.BasisConvention(n), matrix))
    return ops


def test_hermitian_defect_equals_power_form_bitwise():
    ops = operators_for_defect()
    defects = [op.hermitian_defect() for op in ops]
    assert [struct.pack("d", d) for d in defects] == [
        struct.pack("d", reference_hermitian_defect(op)) for op in ops
    ]
    assert 0.0 in defects and max(defects) > 1.0


def test_verify_without_targets_is_zero():
    pair = ch.two_cat()
    assert ch.verify(pair.pre, pair.post, []) == 0.0
    orthogonal = ch.make_ket(C2, {0: 1.0})
    assert ch.verify(pair.pre, orthogonal, []) == 0.0


def test_target_whose_row_overflows_is_refused():
    pre = ch.make_ket(C1, {0: 1.0})
    with pytest.raises(InputError, match="squared norm overflows"):
        ch.assemble(pre, [ch.WeakValueTarget(ch.path_projector(C1, 1, "L"), 1e200)])
