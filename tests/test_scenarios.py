"""Scenario constructors against frozen explicit states and index formulas.

The n = 2..5 states are written out amplitude-for-amplitude; index formulas
are checked against independently summed powers of two. Everything else is
cross-checked through the weak-value layer against the expected patterns.
"""

import math

import numpy as np
import pytest

import cheshire as ch
from cheshire import scenarios
from cheshire.errors import DegenerateScenarioError, InputError
from conftest import equal_up_to_phase
from test_acceptance import pattern_targets

SQ2 = math.sqrt(2)


# ---------------------------------------------------------------------------
# index formulas


@pytest.mark.parametrize(
    "n,want",
    [
        (2, (4, 8)),
        (3, (16, 40)),
        (4, (80, 160)),
        (5, (320, 672)),
    ],
)
def test_pre_state_indices(n, want):
    assert scenarios.pre_state_indices(n) == want


def test_pre_state_indices_formula():
    for n in range(2, 13):
        a = sum(2 ** (2 * n - 2 * k) for k in range(1, n // 2 + 1))
        b = sum(2 ** (2 * n - 2 * j + 1) for j in range(1, (n + 1) // 2 + 1))
        assert scenarios.pre_state_indices(n) == (a, b)


@pytest.mark.parametrize(
    "n,want",
    [
        (2, (4, 9, (10,))),
        (3, (16, 41, (42, 44))),
        (4, (80, 161, (162, 164, 168))),
        (5, (320, 673, (674, 676, 680, 688))),
    ],
)
def test_post_state_indices(n, want):
    assert scenarios.post_state_indices(n) == want


def test_post_indices_distinct():
    """All n+1 post indices stay distinct and in range for n up to 12."""
    for n in range(2, 13):
        a, main, extras = scenarios.post_state_indices(n)
        indices = [a, main, *extras]
        assert len(set(indices)) == n + 1
        assert all(0 <= k < 4**n for k in indices)


def test_pre_indices_reject_small_n():
    with pytest.raises(InputError):
        scenarios.pre_state_indices(1)


# ---------------------------------------------------------------------------
# explicit frozen states


def test_single_pair_amplitudes():
    pair = ch.single()
    assert pair.pre.amplitudes == pytest.approx({0: 1j / SQ2, 2: 1 / SQ2})
    assert pair.post.amplitudes == pytest.approx({0: 1 / SQ2, 3: 1 / SQ2})


def test_two_cat_pair_amplitudes():
    pair = ch.two_cat()
    s3 = math.sqrt(3)
    assert pair.pre.amplitudes == pytest.approx({4: 1 / SQ2, 8: 1 / SQ2})
    assert pair.post.amplitudes == pytest.approx({4: -1j / s3, 9: 1 / s3, 10: 1 / s3})


def test_three_cat_pair_amplitudes():
    pair = ch.n_cat(3)
    assert pair.pre.amplitudes == pytest.approx({16: 1 / SQ2, 40: 1 / SQ2})
    assert pair.post.amplitudes == pytest.approx(
        {16: -1j / 2, 41: 0.5, 42: 0.5, 44: 0.5}
    )


def test_four_cat_pair_amplitudes():
    pair = ch.n_cat(4)
    s5 = math.sqrt(5)
    assert pair.pre.amplitudes == pytest.approx({80: 1 / SQ2, 160: 1 / SQ2})
    assert pair.post.amplitudes == pytest.approx(
        {80: -1j / s5, 161: 1 / s5, 162: 1 / s5, 164: 1 / s5, 168: 1 / s5}
    )


def test_five_cat_pair_amplitudes():
    pair = ch.n_cat(5)
    s6 = math.sqrt(6)
    assert pair.pre.amplitudes == pytest.approx({320: 1 / SQ2, 672: 1 / SQ2})
    assert pair.post.amplitudes == pytest.approx(
        {
            320: -1j / s6,
            673: 1 / s6,
            674: 1 / s6,
            676: 1 / s6,
            680: 1 / s6,
            688: 1 / s6,
        }
    )


def test_three_cat_labels():
    """The n=3 pair in letter labels: pre |LRL>|HHH> + |RLR>|HHH>."""
    pair = ch.n_cat(3)
    conv = pair.pre.convention
    assert conv.label_of_index(16, letters=True) == "LRLHHH"
    assert conv.label_of_index(40, letters=True) == "RLRHHH"
    assert conv.label_of_index(41, letters=True) == "RLRHHV"
    assert conv.label_of_index(42, letters=True) == "RLRHVH"
    assert conv.label_of_index(44, letters=True) == "RLRVHH"


def test_n_cat_requires_two_photons():
    with pytest.raises(InputError):
        ch.n_cat(1)


# ---------------------------------------------------------------------------
# general family


def test_general_reduces_to_two_cat():
    a = ch.general_two_cat(math.pi / 4, 0.0)
    b = ch.two_cat()
    assert equal_up_to_phase(a.pre, b.pre)
    assert equal_up_to_phase(ch.normalize(a.post), b.post)


@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, 3 * math.pi / 8])
@pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
def test_general_grid_matches_pattern(theta, phi):
    """Across the 9-point grid the eight weak values keep the delta pattern."""
    sid = ch.ScenarioId("general_two_cat", theta=theta, phi=phi)
    report = ch.weak_value_report(ch.build_pair(sid))
    for key, want in ch.expected_pattern(sid).items():
        assert report.entries[key] == pytest.approx(want, abs=1e-12), key


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.1, math.pi])
def test_general_boundary_rejected(theta):
    with pytest.raises(DegenerateScenarioError):
        ch.general_two_cat(theta, 0.0)


def test_general_pre_schmidt_coefficients():
    """Path-sector Schmidt spectrum of the pre state is {cos theta, sin theta}."""
    theta = math.pi / 8
    pair = ch.general_two_cat(theta, 0.7)
    mat = np.zeros((2, 2), dtype=complex)
    for k, amp in pair.pre.amplitudes.items():
        bits = format(k, "04b")
        assert bits[2:] == "00"  # polarization sector is HH
        mat[int(bits[0]), int(bits[1])] = amp
    svals = np.linalg.svd(mat, compute_uv=False)
    np.testing.assert_allclose(
        sorted(svals), sorted([math.cos(theta), math.sin(theta)]), atol=1e-12
    )


# ---------------------------------------------------------------------------
# expected patterns and oracle agreement


def test_expected_pattern_single():
    pattern = ch.expected_pattern(ch.ScenarioId("single"))
    assert pattern == {
        ("path", 1, "L"): 1,
        ("path", 1, "R"): 0,
        ("grin", 1, "L"): 0,
        ("grin", 1, "R"): 1,
    }


def test_expected_pattern_parity():
    pattern = ch.expected_pattern(ch.ScenarioId("n_cat", n=4))
    for photon in (1, 3):
        assert pattern[("path", photon, "L")] == 1
        assert pattern[("grin", photon, "R")] == 1
    for photon in (2, 4):
        assert pattern[("path", photon, "R")] == 1
        assert pattern[("grin", photon, "L")] == 1


def test_expected_pattern_equals_the_acceptance_targets():
    for n in range(1, 10):
        sid = ch.ScenarioId("single") if n == 1 else ch.ScenarioId("n_cat", n=n)
        targets = pattern_targets(ch.build_pair(sid))
        assert list(ch.expected_pattern(sid).items()) == list(targets.items()), n


@pytest.mark.parametrize(
    "sid",
    [
        ch.ScenarioId("single"),
        ch.ScenarioId("two_cat"),
        ch.ScenarioId("n_cat", n=3),
        ch.ScenarioId("n_cat", n=4),
        ch.ScenarioId("n_cat", n=5),
        ch.ScenarioId("n_cat", n=6),
    ],
)
def test_oracle_agreement(sid):
    report = ch.weak_value_report(ch.build_pair(sid))
    pattern = ch.expected_pattern(sid)
    assert len(pattern) == 4 * sid.n_photons
    for key, want in pattern.items():
        value = report.entries[key]
        assert value.real == pytest.approx(want, abs=1e-12), key
        assert value.imag == pytest.approx(0.0, abs=1e-12), key


def test_overlap_values():
    """Overlap i/sqrt(2(n+1)) for the n-cat family."""
    for n in range(2, 7):
        pair = ch.n_cat(n)
        assert pair.overlap() == pytest.approx(1j / math.sqrt(2 * (n + 1)))


def test_scenario_id_validation():
    with pytest.raises(InputError):
        ch.ScenarioId("bogus")
    with pytest.raises(InputError):
        ch.ScenarioId("n_cat", n=1)
    with pytest.raises(InputError):
        ch.ScenarioId("general_two_cat")  # missing angles
