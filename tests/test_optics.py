"""Interferometer elements, the shipped device, calibration, and sampling.

The shipped two-photon device is checked against frozen exact outcome
probabilities (hand-derived from the 16-dimensional propagation):
D1 5/16, D2+D5 1/8, D4+D5 1/8, D5 1/6, D6 13/48. Calibration tests detune
the adjustable splitters and require the funneling procedure to recover
working settings; Monte Carlo tests pin determinism and distributional
agreement.
"""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cheshire as ch
from cheshire import optics
from cheshire.errors import (
    CalibrationError,
    CircuitConfigError,
    CircuitParseError,
    InputError,
)
from conftest import basis_ket, equal_up_to_phase, random_ket

SQ2 = math.sqrt(2)
C2 = ch.BasisConvention(2)

FROZEN_PROBS = {
    "D1": 5 / 16,
    "D2+D5": 1 / 8,
    "D4+D5": 1 / 8,
    "D5": 1 / 6,
    "D6": 13 / 48,
}


HWP = ((0, 1), (1, 0))
HADAMARD = ((1 / SQ2, 1 / SQ2), (1 / SQ2, -1 / SQ2))
IDENTITY = ((1, 0), (0, 1))


def phase_matrix(shift: float) -> tuple:
    e = complex(math.cos(shift), math.sin(shift))
    return ((e, 0j), (0j, e))


def toy_circuit(text: str) -> ch.Circuit:
    return optics.parse_circuit(text)


# ---------------------------------------------------------------------------
# element semantics


def test_pbs_routes_and_is_self_inverse():
    pbs = optics.Coupler(1, (("L", "V"), ("R", "V")), HWP)
    state = {(("L", "H"),): 0.6 + 0j, (("L", "V"),): 0.8j}
    once = optics.apply_element(state, pbs)
    assert once == {(("L", "H"),): 0.6 + 0j, (("R", "V"),): 0.8j}
    twice = optics.apply_element(once, pbs)
    assert twice == state


def test_pbs_rejects_identical_ports():
    with pytest.raises(InputError):
        optics.Coupler(1, (("L", "V"), ("L", "V")), HWP)


@pytest.mark.parametrize(
    "ports",
    [(("", "H"), ("", "V")), (("L", "H"), ("L", "D")), (("L", "V"), ("R", ""))],
    ids=["empty-mode", "pol-D", "empty-pol"],
)
def test_coupler_rejects_malformed_ports(ports):
    with pytest.raises(InputError):
        optics.Coupler(1, ports, HWP)


def test_hwp_swaps_polarization_on_its_arm_only():
    hwp = optics.Coupler(1, (("R", "H"), ("R", "V")), HWP)
    state = {(("L", "H"),): 0.5 + 0j, (("R", "H"),): 0.5 + 0j, (("R", "V"),): 0.5j}
    out = optics.apply_element(state, hwp)
    assert out == {(("L", "H"),): 0.5 + 0j, (("R", "V"),): 0.5 + 0j, (("R", "H"),): 0.5j}


def test_hadamard_plate_action_and_self_inverse():
    had = optics.Coupler(1, (("L", "H"), ("L", "V")), HADAMARD)
    h_in = {(("L", "H"),): 1.0 + 0j}
    out = optics.apply_element(h_in, had)
    assert out[(("L", "H"),)] == pytest.approx(1 / SQ2)
    assert out[(("L", "V"),)] == pytest.approx(1 / SQ2)
    again = optics.apply_element(out, had)
    assert again[(("L", "H"),)] == pytest.approx(1.0)
    assert (("L", "V"),) not in again


def test_phase_shifter_on_arm_only():
    ps = optics.Coupler(1, (("L", "H"), ("L", "V")), phase_matrix(math.pi / 2))
    state = {(("L", "H"),): 1 / SQ2 + 0j, (("R", "H"),): 1 / SQ2 + 0j}
    out = optics.apply_element(state, ps)
    assert out[(("L", "H"),)] == pytest.approx(1j / SQ2)
    assert out[(("R", "H"),)] == pytest.approx(1 / SQ2)


def test_balanced_bs_convention():
    """50:50 with t=1/sqrt2, r=i/sqrt2: |a> -> (|a> + i|b>)/sqrt2."""
    bs = optics.BeamSplitter(("L",), ("R",), ("L",), ("R",), t=1 / SQ2, r=1j / SQ2)
    out = optics.apply_element({(("L", "H"),): 1.0 + 0j}, bs)
    assert out[(("L", "H"),)] == pytest.approx(1 / SQ2)
    assert out[(("R", "H"),)] == pytest.approx(1j / SQ2)
    out_b = optics.apply_element({(("R", "H"),): 1.0 + 0j}, bs)
    assert out_b[(("L", "H"),)] == pytest.approx(1j / SQ2)
    assert out_b[(("R", "H"),)] == pytest.approx(1 / SQ2)


def test_bs_rejects_non_unitary_parameters():
    with pytest.raises(InputError):
        optics.BeamSplitter(("L",), ("R",), ("L",), ("R",), t=1.0, r=1.0)


def test_tuned_bs_routes_superposition_to_one_port():
    """The tuned splitter sends -i|LR> + 2|RL> (unnormalized) out one port."""
    s5 = math.sqrt(5)
    bs = optics.BeamSplitter(
        ("L", "R"), ("R", "L"), ("L", "R"), ("y1", "y2"), t=-1j / s5, r=2 / s5
    )
    state = {
        (("L", "H"), ("R", "H")): -1j / s5,
        (("R", "H"), ("L", "H")): 2 / s5,
    }
    out = optics.apply_element(state, bs)
    assert abs(out[(("L", "H"), ("R", "H"))]) == pytest.approx(1.0)
    assert (("y1", "H"), ("y2", "H")) not in out


def test_tuned_bs_orthogonal_input_exits_other_port():
    """Unitarity: the orthogonal combination -conj(b)|a> + conj(a)|b> takes the other exit."""
    s5 = math.sqrt(5)
    bs = optics.BeamSplitter(
        ("L", "R"), ("R", "L"), ("L", "R"), ("y1", "y2"), t=-1j / s5, r=2 / s5
    )
    state = {
        (("L", "H"), ("R", "H")): -2 / s5,
        (("R", "H"), ("L", "H")): 1j / s5,
    }
    out = optics.apply_element(state, bs)
    assert (("L", "H"), ("R", "H")) not in out
    assert abs(out[(("y1", "H"), ("y2", "H"))]) == pytest.approx(1.0)


def test_mirror_is_identity():
    state = {(("L", "H"),): 1j}
    mirror = optics.Coupler(1, (("L", "H"), ("L", "V")), IDENTITY)
    assert optics.apply_element(state, mirror) == state


def test_plate_rejects_non_unitary_matrix():
    with pytest.raises(InputError):
        optics.Coupler(1, (("L", "H"), ("L", "V")), ((1, 1), (0, 1)))


@pytest.mark.parametrize(
    "directive,ports,matrix",
    [
        ("hwp arm=L", (("L", "H"), ("L", "V")), HWP),
        ("hadamard arm=L", (("L", "H"), ("L", "V")), HADAMARD),
        ("phase arm=L shift=pi/3", (("L", "H"), ("L", "V")), phase_matrix(math.pi / 3)),
        ("mirror arm=L", (("L", "H"), ("L", "V")), IDENTITY),
        ("pbs ports=L,R", (("L", "V"), ("R", "V")), HWP),
    ],
    ids=["hwp", "hadamard", "phase", "mirror", "pbs"],
)
def test_single_photon_directives_parse_to_couplers(directive, ports, matrix):
    kind, *extra = directive.split()
    circ = toy_circuit(
        f"photons 1\nsource ket path=L pol=H\nelement {kind} photon=1 {' '.join(extra)}\n"
        "detector D1 photon=1 mode=L pol=H\ndetector D1 photon=1 mode=L pol=V\npostselect-on D1\n"
    )
    assert circ.post_elements == (optics.Coupler(1, ports, matrix),)


def test_adjoint_of_phase_plate_is_the_opposite_shift():
    plate = optics.Coupler(2, (("L", "H"), ("L", "V")), phase_matrix(0.7))
    assert optics._adjoint(plate) == optics.Coupler(2, (("L", "H"), ("L", "V")), phase_matrix(-0.7))


def test_circuit_with_missing_photon_fails_at_construction():
    with pytest.raises(CircuitConfigError):
        optics.Circuit(
            1, {(("L", "H"),): 1.0 + 0j}, (), (optics.Coupler(2, (("L", "H"), ("L", "V")), HWP),),
            {(1, "L", "H"): "D1"}, "D1",
        )


@pytest.mark.parametrize(
    "change",
    [
        {"source": {(("L", "H"),): 1.0 + 0j}},
        {"source": {(("L", "H"), ("R",)): 1.0 + 0j}},
        {"source": {(("L", "H"), ("R", "D")): 1.0 + 0j}},
        {"source": {(("L", "H"), ("R", "H")): 0.5 + 0j}},
        {"source": {}},
        {"n_photons": 3, "pre_elements": (), "post_elements": (), "detectors": {(1, "L", "H"): "D5"}},
        {"detectors": {(3, "L", "H"): "D5"}},
        {"detectors": {(0, "L", "H"): "D5"}},
        {"detectors": {(1, "L", "X"): "D5"}},
        {"detectors": {(1, "R", "H"): "D5", (2, "L", "H"): "D5", (1, "L", "H"): "D1+D2"}},
        {"detectors": {(1, "R", "H"): "D5", (2, "L", "H"): "D5", (1, "", "H"): "D1"}},
        {"postselect_on": "D9"},  # built before, and run_exact then read success probability 0.0
    ],
    ids=["ket-short", "ket-pols-short", "ket-bad-pol", "source-unnormalized", "source-empty",
         "spdc-three-photons",
         "detector-photon-high", "detector-photon-zero", "detector-bad-pol", "detector-label-plus",
         "detector-empty-mode", "postselect-on-unbound"],
)
def test_bad_source_or_detector_fails_at_construction(change):
    with pytest.raises(CircuitConfigError):
        dataclasses.replace(ch.two_cat_device(), **change)


def test_mode_collision_detected():
    """A splitter output landing on an occupied pass-through mode breaks unitarity."""
    bs = optics.BeamSplitter(("L",), ("x",), ("R",), ("x",), t=1.0, r=0.0)
    state = {(("L", "H"),): 1 / SQ2 + 0j, (("R", "H"),): 1 / SQ2 + 0j}
    with pytest.raises(CircuitConfigError):
        optics.propagate(state, [bs])


def test_phase_orthogonal_mode_collision_detected():
    """A collision that happens to keep the norm (amplitudes 90 degrees apart) still fails."""
    bs = optics.BeamSplitter(("A", "A"), ("C", "C"), ("B", "B"), ("C", "C"), 1, 0)
    state = {
        (("A", "H"), ("A", "H")): 1 / SQ2 + 0j,
        (("B", "H"), ("B", "H")): 1j / SQ2,
    }
    with pytest.raises(CircuitConfigError):
        optics.propagate(state, [bs])


def test_state_ket_roundtrip():
    rng = np.random.default_rng(41)
    ket = random_ket(rng, 2)
    again = optics.state_to_ket(optics.ket_to_state(ket), 2)
    assert equal_up_to_phase(again, ket)
    assert again.amplitudes == pytest.approx(ket.amplitudes)


# ---------------------------------------------------------------------------
# the shipped device


def test_builtin_circuit_parses():
    circ = ch.two_cat_device()
    assert circ.n_photons == 2
    assert circ.postselect_on == "D5"
    assert len(circ.pre_elements) == 4
    assert len(circ.post_elements) == 13
    adjustables = [
        el for el in circ.post_elements
        if isinstance(el, optics.BeamSplitter) and el.adjustable
    ]
    assert [bs.name for bs in adjustables] == ["BS1", "BS2", "BS3"]


def test_pre_block_emits_path_entangled_pair():
    circ = ch.two_cat_device()
    pre = ch.run_pre_block(circ)
    assert ch.fidelity_up_to_phase(pre, ch.two_cat().pre) >= 1 - 1e-12


def test_exact_distribution_frozen():
    result = ch.run_exact(ch.two_cat_device())
    probs = result.probabilities()
    assert set(probs) == set(FROZEN_PROBS)
    for pattern, want in FROZEN_PROBS.items():
        assert probs[pattern] == pytest.approx(want, abs=1e-12), pattern
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_success_probability_is_one_sixth():
    result = ch.run_exact(ch.two_cat_device())
    assert result.success_probability == pytest.approx(1 / 6, abs=1e-12)


def test_success_conditional_state_is_pure_config():
    result = ch.run_exact(ch.two_cat_device())
    state = result.conditional("D5")
    assert list(state) == [(("R", "H"), ("L", "H"))]
    assert abs(state[(("R", "H"), ("L", "H"))]) == pytest.approx(1.0)


def test_effective_postselection_matches_target():
    """The post block implements exactly the intended post-selection ray."""
    eff = ch.effective_postselection(ch.two_cat_device())
    assert ch.fidelity_up_to_phase(eff, ch.two_cat().post) >= 1 - 1e-12


def test_device_weak_values_match_scenario():
    """Weak values through the physical device equal the abstract pair's."""
    circ = ch.two_cat_device()
    pair = ch.pair_from_states(ch.run_pre_block(circ), ch.effective_postselection(circ))
    report = ch.weak_value_report(pair)
    oracle = ch.weak_value_report(ch.two_cat())
    for key, want in oracle.entries.items():
        assert report.entries[key] == pytest.approx(want, abs=1e-10), key


def test_unbound_port_rejected():
    text = """\
photons 1
source ket path=L pol=H
element hwp photon=1 arm=L
detector D1 photon=1 mode=L pol=H
postselect-on D1
"""
    with pytest.raises(CircuitConfigError):
        ch.run_exact(toy_circuit(text))  # amplitude ends on the unbound (L, V) port


def test_no_element_circuit_clicks_with_probability_one():
    text = """\
photons 1
source ket path=L pol=H
detector D1 photon=1 mode=L pol=H
postselect-on D1
"""
    result = ch.run_exact(toy_circuit(text))
    assert result.probabilities() == {"D1": pytest.approx(1.0)}
    assert result.conditional("D1") == {(("L", "H"),): pytest.approx(1.0)}


# ---------------------------------------------------------------------------
# unitarity and conservation


def test_post_block_preserves_norm_and_inner_products():
    """Element chain acts unitarily on 100 random inputs (pairwise products too)."""
    circ = ch.two_cat_device()
    rng = np.random.default_rng(42)
    previous = None
    for _ in range(100):
        ket = random_ket(rng, 2)
        state = optics.ket_to_state(ket)
        out = optics.propagate(state, circ.post_elements)
        norm = math.sqrt(sum(abs(a) ** 2 for a in out.values()))
        assert norm == pytest.approx(1.0, abs=1e-12)
        if previous is not None:
            ip_in = sum(
                previous[0].get(cfg, 0j).conjugate() * amp for cfg, amp in state.items()
            )
            ip_out = sum(
                previous[1].get(cfg, 0j).conjugate() * amp for cfg, amp in out.items()
            )
            assert ip_out == pytest.approx(ip_in, abs=1e-11)
        previous = (state, out)


def test_probability_conservation_random_sources():
    """Total outcome probability is 1 for random product sources through the device."""
    base = ch.two_cat_device()
    rng = np.random.default_rng(43)
    for _ in range(100):
        paths = tuple(str(p) for p in rng.choice(["L", "R"], size=2))
        pols = tuple(str(p) for p in rng.choice(["H", "V"], size=2))
        circ = dataclasses.replace(base, source={tuple(zip(paths, pols)): 1.0 + 0j})
        total = sum(ch.run_exact(circ).probabilities().values())
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# calibration


def detuned_device() -> ch.Circuit:
    circ = ch.two_cat_device()
    post = []
    for el in circ.post_elements:
        if isinstance(el, optics.BeamSplitter) and el.adjustable:
            post.append(dataclasses.replace(el, t=0.6 + 0j, r=0.8j))
        else:
            post.append(el)
    return dataclasses.replace(circ, post_elements=tuple(post))


@pytest.mark.parametrize("device", [ch.two_cat_device, detuned_device], ids=["bundled", "detuned"])
def test_adjoint_undoes_every_element_of_the_device(device):
    """Each element's adjoint returns the state the device feeds into it."""
    circ = device()
    state = circ.source
    for element in circ.pre_elements + circ.post_elements:
        back = optics.apply_element(optics.apply_element(state, element), optics._adjoint(element))
        assert max(abs(back.get(c, 0j) - state.get(c, 0j)) for c in set(back) | set(state)) <= 1e-15
        state = optics.apply_element(state, element)


def test_calibration_recovers_shipped_settings():
    result = ch.calibrate_postselection(detuned_device(), ch.two_cat().post)
    assert result.residual <= 1e-10
    want = {
        "BS1": (1 / SQ2, -1 / SQ2),
        "BS2": (1.0, 0.0),
        "BS3": (math.sqrt(2 / 3), 1 / math.sqrt(3)),
    }
    for name, (t, r) in want.items():
        got_t, got_r = result.settings[name]
        assert got_t == pytest.approx(t, abs=1e-12), name
        assert got_r == pytest.approx(r, abs=1e-12), name


def test_calibrated_device_reproduces_distribution():
    result = ch.calibrate_postselection(detuned_device(), ch.two_cat().post)
    probs = ch.run_exact(result.circuit).probabilities()
    for pattern, want in FROZEN_PROBS.items():
        assert probs[pattern] == pytest.approx(want, abs=1e-12), pattern


def test_calibrating_the_correct_device_is_a_fixed_point():
    circ = ch.two_cat_device()
    result = ch.calibrate_postselection(circ, ch.two_cat().post)
    assert result.residual <= 1e-10
    for el, tuned in zip(circ.post_elements, result.circuit.post_elements):
        if isinstance(el, optics.BeamSplitter) and el.adjustable:
            assert tuned.t == pytest.approx(el.t, abs=1e-12)
            assert tuned.r == pytest.approx(el.r, abs=1e-12)


TOY_BS = """\
photons 2
source ket path=L,R pol=H,H
postselection
element bs name=only adjustable in_a=L,R in_b=R,L out_a=L,R out_b=y1,y2 t=1 r=0
detector D5 photon=1 mode=L pol=H
detector D5 photon=2 mode=R pol=H
detector DY photon=1 mode=y1 pol=H
detector DY photon=2 mode=y2 pol=H
detector DX photon=1 mode=R pol=H
detector DX photon=2 mode=L pol=H
postselect-on D5
"""


def test_toy_calibration_matches_tuned_example():
    """Funneling -i|LR> + 2|RL> through one splitter lands on t=-i/sqrt5, r=2/sqrt5."""
    circ = toy_circuit(TOY_BS)
    target = ch.make_ket(C2, {4: -1j, 8: 2.0})
    result = ch.calibrate_postselection(circ, target)
    s5 = math.sqrt(5)
    t, r = result.settings["only"]
    assert t == pytest.approx(-1j / s5, abs=1e-12)
    assert r == pytest.approx(2 / s5, abs=1e-12)
    eff = ch.effective_postselection(result.circuit)
    assert ch.fidelity_up_to_phase(eff, ch.normalize(target)) >= 1 - 1e-12


def test_toy_identity_calibration():
    """A target already sitting on the kept port calibrates to t=1, r=0."""
    circ = toy_circuit(TOY_BS)
    target = basis_ket(C2, "0100")  # photon 1 on L, photon 2 on R, both H
    result = ch.calibrate_postselection(circ, target)
    t, r = result.settings["only"]
    assert t == pytest.approx(1.0, abs=1e-12)
    assert r == pytest.approx(0.0, abs=1e-12)


def test_uncalibratable_target_raises_with_residual():
    """Polarization content the block cannot rotate leaves a large residual."""
    circ = toy_circuit(TOY_BS)
    target = ch.make_ket(C2, {4: -1j, 11: 2.0})  # |1011> carries VV on the in_b modes
    with pytest.raises(CalibrationError) as err:
        ch.calibrate_postselection(circ, target)
    assert err.value.residual > 0.5


def test_calibration_requires_adjustable_splitter():
    text = """\
photons 1
source ket path=L pol=H
detector D1 photon=1 mode=L pol=H
postselect-on D1
"""
    with pytest.raises(InputError):
        ch.calibrate_postselection(toy_circuit(text), basis_ket(ch.BasisConvention(1), "00"))


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_deterministic_and_worker_invariant():
    circ = ch.two_cat_device()
    a = ch.run_monte_carlo(circ, shots=10000, seed=123)
    b = ch.run_monte_carlo(circ, shots=10000, seed=123)
    assert a.counts == b.counts
    assert sum(a.counts.values()) == 10000
    d = ch.run_monte_carlo(circ, shots=10000, seed=124)
    assert d.counts != a.counts


def test_monte_carlo_success_rate_within_five_sigma():
    shots = 60000
    record = ch.run_monte_carlo(ch.two_cat_device(), shots=shots, seed=7)
    expected = shots / 6
    sigma = math.sqrt(shots * (1 / 6) * (5 / 6))
    assert abs(record.counts["D5"] - expected) <= 5 * sigma


@pytest.mark.parametrize("shots", [1000, 10000, 100000])
def test_monte_carlo_chi_square(shots):
    """Counts agree with the exact distribution (chi-square, df=4, alpha=1e-4)."""
    record = ch.run_monte_carlo(ch.two_cat_device(), shots=shots, seed=7)
    chi2 = sum(
        (record.counts.get(p, 0) - shots * q) ** 2 / (shots * q)
        for p, q in FROZEN_PROBS.items()
    )
    assert chi2 < 23.51


def test_monte_carlo_input_validation():
    circ = ch.two_cat_device()
    with pytest.raises(InputError):
        ch.run_monte_carlo(circ, shots=0, seed=7)
    with pytest.raises(InputError):
        ch.run_monte_carlo(circ, shots=10, seed=-1)


def test_monte_carlo_partial_final_block():
    """Shot counts that are not a multiple of the block size still total correctly."""
    record = ch.run_monte_carlo(ch.two_cat_device(), shots=5000, seed=9)
    assert sum(record.counts.values()) == 5000


def test_monte_carlo_counts_are_one_multinomial_per_seeded_block():
    """Block b draws min(4096, shots - 4096 b) shots from a generator seeded [seed, b]."""
    circ = ch.two_cat_device()
    probs = ch.run_exact(circ).probabilities()
    p = np.array(list(probs.values()))
    shots, seed = 3 * 4096 + 5, 11
    want = sum(
        np.random.default_rng([seed, b]).multinomial(min(4096, shots - 4096 * b), p / p.sum())
        for b in range(4)
    )
    record = ch.run_monte_carlo(circ, shots=shots, seed=seed)
    assert record.counts == dict(zip(probs, (int(c) for c in want)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_monte_carlo_whole_blocks_extend_a_run(k):
    circ = ch.two_cat_device()
    short = ch.run_monte_carlo(circ, shots=4096 * k, seed=5).counts
    longer = ch.run_monte_carlo(circ, shots=4096 * (k + 1), seed=5).counts
    assert set(short) == set(longer)
    assert all(longer[p] >= short[p] for p in short)
    assert sum(longer[p] - short[p] for p in short) == 4096


# ---------------------------------------------------------------------------
# the calibration's closed form against an SVD reference


def svd_direction(alpha, beta):
    """Unit x minimizing |x0 alpha + x1 beta|, its larger entry turned real positive."""
    x = np.linalg.svd(np.column_stack([alpha, beta]))[2][-1].conj()
    peak = int(np.argmax(np.abs(x)))
    return x * (x[peak].conjugate() / abs(x[peak]))


def random_block(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def direction_pairs():
    rng = np.random.default_rng(2024)
    pairs = []
    for size in (2, 4, 8):
        for _ in range(300):
            pairs.append((random_block(rng, size), random_block(rng, size)))  # random
        for _ in range(100):
            alpha, c = random_block(rng, size), complex(*rng.normal(size=2))
            pairs.append((alpha, c * alpha))  # colinear
            pairs.append((alpha, c * alpha + 1e-9 * random_block(rng, size)))  # near-colinear
            zero = np.zeros(size, dtype=complex)
            pairs.append((zero, random_block(rng, size)))  # one zero column
            pairs.append((random_block(rng, size), zero))
    return pairs


def test_null_direction_matches_svd_reference():
    worst = 0.0
    for alpha, beta in direction_pairs():
        got = np.array(optics._null_direction(list(alpha), list(beta)))
        worst = max(worst, float(np.max(np.abs(got - svd_direction(alpha, beta)))))
    assert worst <= 1e-12


def test_null_direction_of_a_degenerate_pair_is_none():
    """All-zero blocks, or orthogonal blocks of equal norm: every direction is optimal."""
    assert optics._null_direction([0j, 0j], [0j, 0j]) is None
    assert optics._null_direction([1 + 0j, 0j], [0j, 1j]) is None
    assert optics._null_direction([0.6 + 0j, 0.8j], [0.8 + 0j, 0.6j]) is not None


def test_exact_and_calibration_paths_load_no_numpy():
    probe = (
        "import sys, cheshire as ch\n"
        "device = ch.two_cat_device()\n"
        "tuned = ch.calibrate_postselection(device, ch.two_cat().post).circuit\n"
        "ch.run_exact(tuned), ch.effective_postselection(tuned)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# circuit file parsing


@pytest.mark.parametrize(
    "text,line",
    [
        ("source spdc modes=L,L\n", 1),  # photons must come first
        ("photons 2\nphotons 2\n", 2),
        ("photons x\n", 1),
        ("photons 1\nsource spdc modes=L,L\n", 2),  # spdc needs two photons
        ("photons 1\nsource laser\n", 2),
        ("photons 1\nelement warp photon=1\n", 2),
        ("photons 1\nelement pbs photon=1\n", 2),  # missing ports
        ("photons 1\nelement hwp photon=q arm=L\n", 2),
        ("photons 1\nelement bs in_a=L in_b=R t=1 r=1\n", 2),  # non-unitary
        ("photons 1\nelement phase photon=1 arm=L shift=bogus\n", 2),
        ("photons 2\nsource ket path=L pol=H\n", 2),  # wrong arity
        ("photons 1\nsource ket path=L pol=Q\n", 2),
        ("photons 1\nsource ket path=L pol=H\ndetector D1 photon=1 mode=L pol=H\ndetector D2 photon=1 mode=L pol=H\npostselect-on D1\n", 4),
        ("photons 1\nelement hwp photon=0 arm=L\n", 2),  # photon out of range
        ("photons 1\nelement pbs photon=2 ports=L,R\n", 2),
        ("photons 1\nelement pbs photon=1 ports=L,L\n", 2),  # identical ports
        ("photons 1\nelement bs in_a=L in_b=R t=1 r=0 adjustible\n", 2),  # unknown flag
        ("photons 1\nelement hwp photon=1 arm=L adjustable\n", 2),
        ("photons 1\nelement pbs photon=1 ports=L,R bogus=3\n", 2),  # unknown key
        ("photons 1\nelement phase photon=1 arm=L shift=0 t=1\n", 2),
        ("photons 1\nsource ket path=L pol=H modes=L\n", 2),
        ("photons 2\nsource spdc modes=L,L fast\n", 2),
        ("photons 1\nsource ket path=L pol=H\ndetector D1 photon=1 mode=L pol=H label=x\n", 3),
        ("photons 1\npostselection now\n", 2),
        ("photons 1\nsource ket path=L pol=H\ndetector D1+D2 photon=1 mode=L pol=H\n", 3),  # '+' label
        ("photons 1\nelement hwp photon=1 arm=\n", 2),  # empty values
        ("photons 1\nsource ket path=L pol=H\ndetector D1 photon=1 mode= pol=H\n", 3),
        ("photons 1\nelement bs name= in_a=L in_b=R t=1 r=0\n", 2),
        ("photons ²\n", 1),  # a digit to str.isdigit, not to int()
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(CircuitParseError) as err:
        optics.parse_circuit(text)
    assert err.value.line_no == line
    assert f"line {line}" in str(err.value)


def test_parse_requires_source_and_postselection_label():
    with pytest.raises(CircuitParseError):
        optics.parse_circuit("photons 1\ndetector D1 photon=1 mode=L pol=H\npostselect-on D1\n")
    with pytest.raises(CircuitParseError):
        optics.parse_circuit("photons 1\nsource ket path=L pol=H\n")
    with pytest.raises(CircuitParseError):
        optics.parse_circuit(
            "photons 1\nsource ket path=L pol=H\n"
            "detector D1 photon=1 mode=L pol=H\npostselect-on D9\n"
        )


def test_parse_without_marker_treats_elements_as_post_block():
    text = """\
photons 1
source ket path=L pol=H
element hwp photon=1 arm=L
detector D1 photon=1 mode=L pol=H
detector D2 photon=1 mode=L pol=V
postselect-on D2
"""
    circ = optics.parse_circuit(text)
    assert circ.pre_elements == ()
    assert len(circ.post_elements) == 1
    assert ch.run_exact(circ).probabilities() == {"D2": pytest.approx(1.0)}


def test_element_photon_out_of_range_rejected():
    text = """\
photons 2
source spdc modes=L,L
element hwp photon=3 arm=L
detector D1 photon=1 mode=L pol=H
detector D1 photon=1 mode=L pol=V
detector D1 photon=2 mode=L pol=H
detector D1 photon=2 mode=L pol=V
postselect-on D1
"""
    with pytest.raises(CircuitParseError) as err:
        optics.parse_circuit(text)
    assert err.value.line_no == 3


PLUS_LABEL_CIRCUIT = """\
photons 2
source ket path=L,L pol=H,H
element bs in_a=L,L in_b=R,R t=1/sqrt(2) r=1/sqrt(2)
detector A photon=1 mode=L pol=H
detector B photon=2 mode=L pol=H
detector A+B photon=1 mode=R pol=H
detector A+B photon=2 mode=R pol=H
postselect-on A
"""


def test_plus_in_detector_label_is_refused():
    """Patterns join labels with '+': the pair on A and B and the pair on A+B would both read A+B."""
    with pytest.raises(CircuitParseError) as err:
        optics.parse_circuit(PLUS_LABEL_CIRCUIT)
    assert err.value.line_no == 6
    assert "'+'" in str(err.value)


def device_text_with(old: str, new: str) -> str:
    text = Path(optics.builtin_circuit_path()).read_text(encoding="utf-8")
    assert old in text
    return text.replace(old, new)


def test_duplicate_splitter_name_is_refused_by_the_parser():
    """Calibration reports settings by name: a second BS1 would hide the first one's setting."""
    text = device_text_with("name=BS2", "name=BS1")
    line = next(i for i, raw in enumerate(text.splitlines(), 1) if "in_a=w1,w2" in raw)
    with pytest.raises(CircuitParseError) as err:
        optics.parse_circuit(text)
    assert err.value.line_no == line
    assert "duplicate beam splitter name 'BS1'" in str(err.value)


def test_duplicate_splitter_name_fails_at_construction():
    circ = ch.two_cat_device()
    named = [el for el in circ.post_elements if isinstance(el, optics.BeamSplitter)]
    renamed = tuple(
        dataclasses.replace(el, name="BS1") if el is named[1] else el for el in circ.post_elements
    )
    with pytest.raises(CircuitConfigError):
        dataclasses.replace(circ, post_elements=renamed)
    # across the blocks: a BS1 before the marker and the device's BS1 after it
    early = dataclasses.replace(named[0], adjustable=False)
    with pytest.raises(CircuitConfigError):
        dataclasses.replace(circ, pre_elements=circ.pre_elements + (early,))


def test_unnamed_splitters_may_repeat():
    text = device_text_with("name=BS1 ", "").replace("name=BS2 ", "")
    circ = optics.parse_circuit(text)
    result = ch.calibrate_postselection(circ, ch.two_cat().post)
    assert len(result.settings) == 3
    assert "BS3" in result.settings


def test_parse_circuit_file_missing(tmp_path):
    with pytest.raises(OSError):
        optics.parse_circuit_file(tmp_path / "none.circuit")


# ---------------------------------------------------------------------------
# each circuit rule, by file and by construction

RULE_BASE = """\
photons 2
source ket path=L,R pol=H,H
element hwp photon=1 arm=L
element bs name=BS1 in_a=L,R in_b=R,L t=1/sqrt(2) r=1/sqrt(2)
detector A photon=1 mode=L pol=H
detector B photon=2 mode=R pol=H
postselect-on A
""".splitlines()


def rule_base() -> ch.Circuit:
    return optics.parse_circuit("\n".join(RULE_BASE))


def with_post(*elements):
    return lambda: dataclasses.replace(rule_base(), post_elements=elements)


def with_detector(port, label="A"):
    """The base detectors plus one binding; postselect-on's A stays bound."""
    return lambda: dataclasses.replace(rule_base(), detectors={**rule_base().detectors, port: label})


def with_source(config):
    return lambda: dataclasses.replace(rule_base(), source={config: 1.0 + 0j})


def splitter(in_a, in_b, name=""):
    return optics.BeamSplitter(in_a, in_b, in_a, in_b, 1, 0, name)


# rule: (line replaced, its new text, line reported, direct construction, error it raises)
RULES = {
    "element-photon": (3, "element hwp photon=3 arm=L", 3,
                       with_post(optics.Coupler(3, (("L", "H"), ("L", "V")), HWP)), CircuitConfigError),
    "detector-photon": (5, "detector A photon=0 mode=L pol=H", 5,
                        with_detector((0, "L", "H")), CircuitConfigError),
    "plus-label": (6, "detector A+B photon=2 mode=R pol=H", 6,
                   with_detector((2, "R", "H"), "A+B"), CircuitConfigError),
    "duplicate-name": (3, "element bs name=BS1 in_a=L,R in_b=R,L t=1 r=0", 4,
                       with_post(*[splitter(("L", "R"), ("R", "L"), "BS1")] * 2), CircuitConfigError),
    "detector-pol": (5, "detector A photon=1 mode=L pol=D", 5,
                     with_detector((1, "L", "D")), CircuitConfigError),
    "source-pol": (2, "source ket path=L,R pol=H,D", 2,
                   with_source((("L", "H"), ("R", "D"))), CircuitConfigError),
    "coupler-ports": (3, "element pbs photon=1 ports=L,R,x", 3,
                      lambda: optics.Coupler(1, (("L", "V"), ("R", "V"), ("x", "V")), HWP), InputError),
    "source-mode-count": (2, "source ket path=L pol=H", 2,
                          with_source((("L", "H"),)), CircuitConfigError),
    "bs-mode-count": (4, "element bs in_a=L in_b=R t=1 r=0", 4,
                      with_post(splitter(("L",), ("R",))), CircuitConfigError),
    "source-empty-mode": (2, "source ket path=L, pol=H,H", 2,
                          with_source((("L", "H"), ("", "H"))), CircuitConfigError),
    "detector-empty-mode": (5, "detector A photon=1 mode= pol=H", 5,
                            with_detector((1, "", "H")), CircuitConfigError),
    "bs-empty-mode": (4, "element bs in_a=L, in_b=R,L t=1 r=0", 4,
                      with_post(splitter(("L", ""), ("R", "L"))), CircuitConfigError),
    "unbound-postselect-on": (7, "postselect-on Z", 1,
                              lambda: dataclasses.replace(rule_base(), postselect_on="Z"), CircuitConfigError),
}


@pytest.mark.parametrize("replaced,new,line,build,error", RULES.values(), ids=RULES.keys())
def test_each_rule_holds_in_the_file_and_at_construction(replaced, new, line, build, error):
    lines = list(RULE_BASE)
    lines[replaced - 1] = new
    with pytest.raises(CircuitParseError) as err:
        optics.parse_circuit("\n".join(lines))
    assert err.value.line_no == line
    with pytest.raises(error):
        build()


def test_comments_and_blank_lines_as_in_problem_files():
    plain = "\n".join(RULE_BASE)
    commented = "# a device\n\n" + plain.replace("photons 2", "photons 2   # two photons").replace(
        "pol=H,H", "pol=H,H# both H"
    )
    assert optics.parse_circuit(commented) == optics.parse_circuit(plain)
