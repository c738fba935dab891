"""Weak values, reports, and the Gaussian pointer readout."""

import json
import math
import struct

import numpy as np
import pytest

import cheshire as ch
from cheshire.cli import _flag
from cheshire.errors import AnomalousSelectionError, InputError, ZeroNormError
from conftest import (
    basis_ket,
    dense_observable,
    dense_path_projector,
    dense_sigma,
    dense_weak_value,
    ket_vec,
    random_ket,
    run_cli,
)

C1 = ch.BasisConvention(1)
C2 = ch.BasisConvention(2)

SQ2 = math.sqrt(2)
SQ3 = math.sqrt(3)


def single_pair():
    pre = ch.make_ket(C1, {0: 1j / SQ2, 2: 1 / SQ2})
    post = ch.make_ket(C1, {0: 1 / SQ2, 3: 1 / SQ2})
    return ch.pair_from_states(pre, post)


def two_cat_pair():
    pre = ch.make_ket(C2, {4: 1 / SQ2, 8: 1 / SQ2})
    post = ch.make_ket(C2, {4: -1j / SQ3, 9: 1 / SQ3, 10: 1 / SQ3})
    return ch.pair_from_states(pre, post)


# ---------------------------------------------------------------------------
# weak values against raw-built states


def test_single_cat_deltas():
    """Path localizes in L while the polarization property localizes in R."""
    pair = single_pair()
    values = {
        (kind, arm): ch.weak_value(ch.observable_for(C1, kind, 1, arm), pair)
        for kind in ("path", "grin")
        for arm in ("L", "R")
    }
    assert values[("path", "L")] == pytest.approx(1.0, abs=1e-12)
    assert values[("path", "R")] == pytest.approx(0.0, abs=1e-12)
    assert values[("grin", "L")] == pytest.approx(0.0, abs=1e-12)
    assert values[("grin", "R")] == pytest.approx(1.0, abs=1e-12)


def test_two_cat_deltas():
    pair = two_cat_pair()
    report = ch.weak_value_report(pair)
    expected = {
        ("path", 1, "L"): 1, ("path", 1, "R"): 0,
        ("grin", 1, "L"): 0, ("grin", 1, "R"): 1,
        ("path", 2, "L"): 0, ("path", 2, "R"): 1,
        ("grin", 2, "L"): 1, ("grin", 2, "R"): 0,
    }
    for key, want in expected.items():
        assert report.entries[key] == pytest.approx(want, abs=1e-12), key
    assert report.overlap == pytest.approx(1j / math.sqrt(6))


def test_weak_value_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        pre = random_ket(rng, 2)
        post = random_ket(rng, 2)
        pair = ch.pair_from_states(pre, post)
        kind = ("path", "grin")[int(rng.integers(2))]
        photon = int(rng.integers(1, 3))
        arm = "LR"[int(rng.integers(2))]
        got = ch.weak_value(ch.observable_for(C2, kind, photon, arm), pair)
        want = dense_weak_value(dense_observable(2, kind, photon, arm), pre, post)
        assert got == pytest.approx(want, abs=1e-10)


def test_scale_invariance():
    """Rescaling either state by any nonzero complex factor leaves weak values fixed."""
    rng = np.random.default_rng(22)
    obs = ch.grin_observable(C2, 2, "L")
    for _ in range(100):
        pre = random_ket(rng, 2)
        post = random_ket(rng, 2)
        base = ch.weak_value(obs, ch.pair_from_states(pre, post))
        a = complex(rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
        b = complex(rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
        scaled = ch.weak_value(
            obs,
            ch.pair_from_states(
                ch.superpose([(a, pre)]), ch.superpose([(b, post)])
            ),
        )
        assert scaled == pytest.approx(base, abs=1e-9)


def test_linearity_in_observable():
    rng = np.random.default_rng(23)
    o1 = ch.path_projector(C2, 1, "L")
    o2 = ch.grin_observable(C2, 2, "R")
    for _ in range(100):
        pair = ch.pair_from_states(random_ket(rng, 2), random_ket(rng, 2))
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        combo = ch.op_add(ch.op_scale(a, o1), ch.op_scale(b, o2))
        left = ch.weak_value(combo, pair)
        right = a * ch.weak_value(o1, pair) + b * ch.weak_value(o2, pair)
        assert left == pytest.approx(right, abs=1e-9)


def test_arm_sum_rule():
    """Pi_L + Pi_R = identity forces the arm weak values to sum to 1."""
    rng = np.random.default_rng(24)
    for _ in range(100):
        pair = ch.pair_from_states(random_ket(rng, 2), random_ket(rng, 2))
        photon = int(rng.integers(1, 3))
        total = ch.weak_value(ch.path_projector(C2, photon, "L"), pair) + ch.weak_value(
            ch.path_projector(C2, photon, "R"), pair
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_grin_arms_sum_to_full_sigma():
    rng = np.random.default_rng(25)
    for _ in range(50):
        pair = ch.pair_from_states(random_ket(rng, 2), random_ket(rng, 2))
        photon = int(rng.integers(1, 3))
        total = ch.weak_value(ch.grin_observable(C2, photon, "L"), pair) + ch.weak_value(
            ch.grin_observable(C2, photon, "R"), pair
        )
        full = ch.weak_value(ch.circular_sigma_z(C2, photon), pair)
        assert total == pytest.approx(full, abs=1e-9)


def test_orthogonal_selection_rejected():
    """Weak values are undefined at orthogonality; the raw overlap is reported."""
    pair = ch.pair_from_states(basis_ket(C1, "00"), basis_ket(C1, "10"))
    with pytest.raises(AnomalousSelectionError) as err:
        ch.weak_value(ch.path_projector(C1, 1, "L"), pair)
    assert abs(err.value.overlap) < 1e-10
    with pytest.raises(AnomalousSelectionError):
        ch.weak_value_report(pair)


def test_eigenstate_weak_value_is_eigenvalue():
    pre = basis_ket(C1, "00")  # in arm L
    post = ch.make_ket(C1, {0: 1 / SQ2, 2: 1 / SQ2})
    pair = ch.pair_from_states(pre, post)
    assert ch.weak_value(ch.path_projector(C1, 1, "L"), pair) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# report rendering


def test_report_row_order():
    report = ch.weak_value_report(two_cat_pair())
    keys = list(report.entries)
    assert keys[:4] == [
        ("path", 1, "L"), ("path", 1, "R"), ("grin", 1, "L"), ("grin", 1, "R"),
    ]
    assert keys[4:] == [
        ("path", 2, "L"), ("path", 2, "R"), ("grin", 2, "L"), ("grin", 2, "R"),
    ]


def test_report_table_flags():
    lines = run_cli("scenario", "two-cat").output.splitlines()
    assert lines[0].split() == ["photon", "kind", "arm", "re", "im", "flag"]
    assert lines[1].endswith("=1")
    assert lines[2].endswith("=0")
    assert lines[-4:-2] == ["# overlap_re 0", "# overlap_im 0.408248290464"]


def test_report_flags_only_values_near_zero_or_one():
    assert [_flag(v) for v in (0j, 1 + 0j, 1e-12 + 1e-12j, 1 - 1e-12j)] == ["=0", "=1", "=0", "=1"]
    assert [_flag(v) for v in (0.5 + 0j, 1 + 2e-12j, 2e-12 + 0j, -1 + 0j)] == ["", "", "", ""]


def test_report_csv_shape():
    lines = run_cli("--format", "csv", "scenario", "two-cat").output.splitlines()
    assert lines[0] == "photon,kind,arm,re,im,flag"
    rows = [line for line in lines[1:] if not line.startswith("#")]
    assert len(rows) == 8
    assert [line.split(" ")[1] for line in lines[9:]] == ["overlap_re", "overlap_im", "tolerance", "pattern_match"]


def test_report_json_parses():
    payload = json.loads(run_cli("--format", "json", "scenario", "two-cat").output)
    assert payload["n_photons"] == 2
    assert len(payload["entries"]) == 8
    assert payload["overlap"]["im"] == pytest.approx(1 / math.sqrt(6))


def test_observable_descriptor_forms():
    path = ch.observable_from_descriptor(C2, "path:1:L")
    assert ch.apply(path, ch.make_ket(C2, {4: 1})).amplitudes == {4: 1.0}
    identity = ch.observable_from_descriptor(C1, "id")
    assert ch.apply(identity, ch.make_ket(C1, {2: 1})).amplitudes == {2: 1.0}
    sigma = ch.observable_from_descriptor(C1, "sigma:1")
    assert ch.apply(sigma, ch.make_ket(C1, {0: 1})).amplitudes == {1: 1j}
    with pytest.raises(InputError):
        ch.observable_from_descriptor(C1, "path:1")
    for index in ("x", "+1", "0_1", "\u0661", " 1"):
        with pytest.raises(InputError):
            ch.observable_from_descriptor(C1, f"path:{index}:L")
    with pytest.raises(InputError):
        ch.observable_from_descriptor(C1, "spin:1:L")


# ---------------------------------------------------------------------------
# pointer readout


def test_pointer_config_validation():
    with pytest.raises(InputError):
        ch.PointerConfig(g=0.0)
    with pytest.raises(InputError):
        ch.PointerConfig(g=1e-2, sigma_p=-1.0)
    cfg = ch.PointerConfig(g=1e-2)
    assert cfg.sigma_x == pytest.approx(1.0)


@pytest.mark.parametrize("field", ["g", "sigma_p"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_pointer_config_rejects_non_finite(field, value):
    settings = {"g": 1e-2, field: value}
    with pytest.raises(InputError, match="finite and positive"):
        ch.PointerConfig(**settings)


def test_pointer_real_part_contract():
    """shift/g converges to Re<O>_w quadratically in g."""
    pair = two_cat_pair()
    obs = ch.grin_observable(C2, 1, "R")
    devs = []
    for g in (1e-2, 5e-3, 2.5e-3):
        mean_x, _ = ch.pointer_shift(obs, pair, ch.PointerConfig(g=g))
        devs.append(abs(mean_x / g - 1.0))
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=5e-3)
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=5e-3)


def test_pointer_imaginary_part_contract():
    """Momentum shift reads the imaginary part: pair engineered for w = (1+i)/2."""
    pre = ch.make_ket(C1, {0: 1 / SQ2, 2: 1 / SQ2})
    post = ch.make_ket(C1, {0: 1 / SQ2, 2: 1j / SQ2})
    pair = ch.pair_from_states(pre, post)
    obs = ch.path_projector(C1, 1, "L")
    w = ch.weak_value(obs, pair)
    assert w == pytest.approx((1 + 1j) / 2)
    cfg = ch.PointerConfig(g=1e-3)
    mean_x, mean_p = ch.pointer_shift(obs, pair, cfg)
    assert mean_x / cfg.g == pytest.approx(w.real, abs=1e-6)
    assert mean_p / (2 * cfg.g * cfg.sigma_p**2) == pytest.approx(w.imag, abs=1e-6)


def test_pointer_eigenstate_exact_shift():
    """Eigenvalue-1 input: the pointer translates by exactly g at any coupling."""
    pre = basis_ket(C1, "00")
    post = ch.make_ket(C1, {0: 1 / SQ2, 2: 1 / SQ2})
    pair = ch.pair_from_states(pre, post)
    obs = ch.path_projector(C1, 1, "L")
    for g in (0.3, 1e-2):
        mean_x, mean_p = ch.pointer_shift(obs, pair, ch.PointerConfig(g=g))
        assert mean_x / g == pytest.approx(1.0, abs=1e-9)
        assert mean_p == pytest.approx(0.0, abs=1e-9)


def test_pointer_identity_observable():
    pair = two_cat_pair()
    obs = ch.identity_op(C2)
    mean_x, _ = ch.pointer_shift(obs, pair, ch.PointerConfig(g=1e-2))
    assert mean_x / 1e-2 == pytest.approx(1.0, abs=1e-10)


def test_pointer_rejects_vanishing_postselection():
    pre = basis_ket(C1, "00")
    post = basis_ket(C1, "01")  # orthogonal, and the coupling keeps it so
    pair = ch.pair_from_states(pre, post)
    obs = ch.path_projector(C1, 1, "R")  # annihilates the pre state
    with pytest.raises(AnomalousSelectionError):
        ch.pointer_shift(obs, pair, ch.PointerConfig(g=1e-3))


def test_pointer_rejects_non_hermitian_observable():
    """|0100><1000| has weak value 1 on two_cat, but no pointer coupling reads it."""
    pair = ch.two_cat()
    mat = np.zeros((C2.dim, C2.dim), dtype=complex)
    mat[4, 8] = 1.0
    obs = ch.operator_from_dense(C2, mat)
    assert ch.weak_value(obs, pair) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError, match="not Hermitian"):
        ch.pointer_shift(obs, pair, ch.PointerConfig(g=1e-2))


def test_pointer_rejects_zero_post_state():
    pair = ch.PrePostPair(ch.two_cat().pre, ch.make_ket(C2, {}), 2)
    with pytest.raises(ZeroNormError):
        ch.pointer_shift(ch.path_projector(C2, 1, "L"), pair, ch.PointerConfig(g=1e-2))


def test_pointer_rejects_mixed_conventions():
    obs = ch.path_projector(C1, 1, "L")
    with pytest.raises(InputError):
        ch.pointer_shift(obs, ch.two_cat(), ch.PointerConfig(g=1e-2))


def test_pointer_at_twenty_photons():
    """No dimension cap: dim 4**20, and shift/g still reads the weak value."""
    pair = ch.n_cat(20)
    obs = ch.grin_observable(pair.convention, 2, "L")
    g = 2.5e-3
    mean_x, mean_p = ch.pointer_shift(obs, pair, ch.PointerConfig(g=g))
    assert mean_x / g == pytest.approx(ch.weak_value(obs, pair).real, abs=1e-5)
    assert mean_p == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# reports from matrix elements against reports from applied states
#
# weak_value takes <post|O|pre> with hilbert.matrix_element, and
# weak_value_report reads the same sums off the amplitudes. Before that they
# built O|pre> and took one inner product with it; that form is the
# reference, and on the paper's scenarios the forms agree bit for bit.


def applied_state_weak_value(obs, pair):
    return ch.inner(pair.post, ch.apply(obs, pair.pre)) / pair.overlap()


CAT_PAIRS = [ch.single()] + [ch.n_cat(n) for n in (*range(2, 13), 64, 512)]
GENERAL_PAIRS = [
    ch.general_two_cat(theta, phi)
    for theta in (0.05, math.pi / 8, 0.7, 1.1, math.pi / 2 - 0.05)
    for phi in (0.0, 1.0, math.pi / 2, 2.3, math.pi, 5.9)
]


@pytest.mark.parametrize("pair", CAT_PAIRS + GENERAL_PAIRS, ids=lambda pair: f"n{pair.n_photons}")
def test_report_equals_applied_state_reference(pair):
    report = ch.weak_value_report(pair)
    assert report.overlap == pair.overlap()
    assert len(report.entries) == 4 * pair.n_photons
    for (kind, photon, arm), value in report.entries.items():
        obs = ch.observable_for(pair.convention, kind, photon, arm)
        assert value == applied_state_weak_value(obs, pair), (kind, photon, arm)


@pytest.mark.parametrize("pair", CAT_PAIRS, ids=lambda pair: f"n{pair.n_photons}")
def test_weak_value_equals_applied_state_reference(pair):
    conv = pair.convention
    for photon in range(1, pair.n_photons + 1):
        for descriptor in (f"sigma:{photon}", f"path:{photon}:R", f"grin:{photon}:L"):
            obs = ch.observable_from_descriptor(conv, descriptor)
            assert ch.weak_value(obs, pair) == applied_state_weak_value(obs, pair), descriptor
    identity = ch.identity_op(conv)
    assert ch.weak_value(identity, pair) == applied_state_weak_value(identity, pair) == 1


def test_weak_value_matches_applied_state_on_random_pairs():
    for seed in range(60):
        n = 1 + seed % 5
        pair = random_sparse_pair(100 + seed, n)
        conv = pair.convention
        sigma = ch.circular_sigma_z(conv, n)
        named = [ch.identity_op(conv), sigma] + [
            ch.observable_for(conv, kind, photon, arm)
            for photon in range(1, n + 1) for kind in ("path", "grin") for arm in "LR"
        ]
        for obs in named:
            for op in (obs, ch.op_add(obs, sigma), ch.op_compose(obs, sigma), ch.op_scale(0.3 - 0.7j, obs)):
                want = applied_state_weak_value(op, pair)
                assert ch.weak_value(op, pair) == pytest.approx(want, rel=1e-12, abs=1e-12), (seed, op.terms)


# ---------------------------------------------------------------------------
# the report against one weak value per named observable, bit for bit
#
# weak_value_report reads the path and grin Pauli strings off the amplitudes
# without building operators; weak_value(observable_for(...)) builds each one
# and takes its matrix element. Both must give the same doubles, signed zeros
# included.


def bits(value):
    return struct.pack("dd", value.real, value.imag)


def signed_zero_sparse_pair(seed, n):
    """Random sparse pair whose amplitude parts are often +-0.0 or +-1; post meets pre and its polarization flips."""
    rng = np.random.default_rng(seed)
    conv = ch.BasisConvention(n)

    def part():
        return (0.0, -0.0, 1.0, -1.0, float(rng.standard_normal()))[int(rng.integers(5))]

    def amplitudes(keys):
        out = {}
        for k in keys:
            a = 0j
            while a == 0:
                a = complex(part(), part())
            out[k] = a
        return out

    while True:
        size = int(rng.integers(1, min(conv.dim, 4) + 1))
        pre_keys = [int(k) for k in rng.choice(conv.dim, size=size, replace=False)]
        flips = [k ^ (1 << int(rng.integers(n))) for k in pre_keys]  # polarization bits are the low n
        post_keys = dict.fromkeys(pre_keys[:2] + flips[1:] + [int(rng.integers(conv.dim))])
        pair = ch.pair_from_states(ch.make_ket(conv, amplitudes(pre_keys)), ch.make_ket(conv, amplitudes(post_keys)))
        if abs(pair.overlap()) > 1e-3:
            return pair


BITWISE_PAIRS = {
    "single": lambda: [ch.single()],
    "n_cat": lambda: [ch.n_cat(n) for n in (*range(2, 65), 200, 512)],
    "general_two_cat": lambda: [
        ch.general_two_cat(theta, phi)
        for theta in (0.01, 0.3, math.pi / 4, 1.2, math.pi / 2 - 0.01)
        for phi in (0.0, 0.4, math.pi / 2, 3.0, math.pi, 4.4, 6.2)
    ],
    "random": lambda: [signed_zero_sparse_pair(500 + seed, 1 + seed % 6) for seed in range(120)],
}


@pytest.mark.parametrize("family", BITWISE_PAIRS)
def test_report_equals_single_weak_values_bitwise(family):
    for pair in BITWISE_PAIRS[family]():
        n, conv = pair.n_photons, pair.convention
        report = ch.weak_value_report(pair)
        order = [(kind, photon, arm) for photon in range(1, n + 1) for kind in ("path", "grin") for arm in "LR"]
        assert list(report.entries) == order
        assert bits(report.overlap) == bits(pair.overlap())
        for key, value in report.entries.items():
            want = ch.weak_value(ch.observable_for(conv, *key), pair)
            assert bits(value) == bits(want), (family, n, key, value, want)


def test_reports_and_patterns_share_one_key_table():
    n = 7
    report = ch.weak_value_report(ch.n_cat(n))
    pattern = ch.expected_pattern(ch.ScenarioId("n_cat", n=n))
    assert len(report.entries) == len(pattern) == 4 * n
    assert all(a is b for a, b in zip(report.entries, pattern))
    ch.weak_value_report(ch.n_cat(40))
    small = ch.weak_value_report(ch.n_cat(3))
    assert list(small.entries) == [
        (kind, photon, arm) for photon in (1, 2, 3) for kind in ("path", "grin") for arm in "LR"
    ]


# ---------------------------------------------------------------------------
# the dense grid readout as a reference: eigh over all 4**n basis states and
# one pointer branch per basis state, sampled on a uniform grid and translated
# in Fourier space

GRID_EXTENT = 16.0
GRID_POINTS = 512


def grid_pointer(cfg):
    """Grid over [-16, 16), the normalized sampled Gaussian, and the step."""
    dx = 2.0 * GRID_EXTENT / GRID_POINTS
    x = -GRID_EXTENT + dx * np.arange(GRID_POINTS)
    sx = cfg.sigma_x
    psi = (2.0 * np.pi * sx * sx) ** (-0.25) * np.exp(-(x * x) / (4.0 * sx * sx))
    total = float(np.sum(np.abs(psi) ** 2) * dx)
    assert abs(total - 1.0) <= 1e-10, f"grid truncates the pointer: norm {total!r}"
    return x, psi / np.sqrt(total), dx


def dense_pointer_shift(matrix, pair, cfg):
    vals, vecs = np.linalg.eigh(matrix)
    pre = ket_vec(pair.pre)
    post = ket_vec(pair.post)
    pre = pre / np.linalg.norm(pre)
    post = post / np.linalg.norm(post)
    weights = (vecs.conj().T @ post).conj() * (vecs.conj().T @ pre)
    x, psi, dx = grid_pointer(cfg)
    p = 2.0 * np.pi * np.fft.fftfreq(GRID_POINTS, d=dx)
    phases = np.exp(-1j * cfg.g * np.outer(vals, p))
    branches = np.fft.ifft(np.fft.fft(psi)[None, :] * phases, axis=1)
    phi = (weights[:, None] * branches).sum(axis=0)
    prob = float(np.sum(np.abs(phi) ** 2) * dx)
    mean_x = float(np.sum(x * np.abs(phi) ** 2) * dx / prob)
    mom_density = np.abs(np.fft.fft(phi)) ** 2
    mean_p = float(np.sum(p * mom_density) / np.sum(mom_density))
    return mean_x, mean_p


def reference_observables(n):
    """(sparse, dense) observable pairs: every path, grin and sigma, id, a sum and a product."""
    conv = ch.BasisConvention(n)
    out = [(ch.identity_op(conv), np.eye(conv.dim, dtype=complex))]
    for photon in range(1, n + 1):
        out.append((ch.circular_sigma_z(conv, photon), dense_sigma(n, photon)))
        for kind in ("path", "grin"):
            for arm in "LR":
                sparse = ch.observable_for(conv, kind, photon, arm)
                out.append((sparse, dense_observable(n, kind, photon, arm)))
    # spectrum {0, 1, 2}; 2 * Pi_L when n = 1
    out.append((
        ch.op_add(ch.path_projector(conv, 1, "L"), ch.path_projector(conv, n, "L")),
        dense_path_projector(n, 1, "L") + dense_path_projector(n, n, "L"),
    ))
    out.append((
        ch.op_compose(ch.path_projector(conv, 1, "R"), ch.circular_sigma_z(conv, n)),
        dense_path_projector(n, 1, "R") @ dense_sigma(n, n),
    ))
    return out


def random_sparse_pair(seed, n):
    rng = np.random.default_rng(seed)
    conv = ch.BasisConvention(n)

    def sparse_ket():
        support = rng.choice(conv.dim, size=min(conv.dim, 6), replace=False)
        amps = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
        return ch.make_ket(conv, {int(k): complex(a) for k, a in zip(support, amps)})

    while True:
        pair = ch.pair_from_states(sparse_ket(), sparse_ket())
        if abs(pair.overlap()) > 1e-3:
            return pair


REFERENCE_PAIRS = {
    "n_cat(2)": lambda: ch.n_cat(2),
    "n_cat(3)": lambda: ch.n_cat(3),
    "n_cat(4)": lambda: ch.n_cat(4),
    "general_two_cat(pi/8,0)": lambda: ch.general_two_cat(math.pi / 8, 0.0),
    "general_two_cat(1.1,2.3)": lambda: ch.general_two_cat(1.1, 2.3),
    "random(n=1)": lambda: random_sparse_pair(31, 1),
    "random(n=2)": lambda: random_sparse_pair(32, 2),
    "random(n=3)": lambda: random_sparse_pair(33, 3),
    "random(n=4)": lambda: random_sparse_pair(34, 4),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_PAIRS))
def test_pointer_matches_dense_reference(name):
    """The Krylov readout agrees with the dense eigh readout to 1e-12."""
    pair = REFERENCE_PAIRS[name]()
    for obs, matrix in reference_observables(pair.n_photons):
        for g in (1e-2, 2.5e-3):
            cfg = ch.PointerConfig(g=g)
            got = ch.pointer_shift(obs, pair, cfg)
            want = dense_pointer_shift(matrix, pair, cfg)
            assert got == pytest.approx(want, abs=1e-12), (obs.terms, g)
