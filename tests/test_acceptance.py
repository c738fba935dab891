"""Acceptance gate: one test per numbered criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report. Every tolerance below is the
one stated for that criterion; timing checks use wall-clock bounds with a
warmup pass so they measure steady-state cost, not import or cache fill.
"""

import math
import time

import numpy as np

import cheshire as ch
from cheshire import optics
from conftest import equal_up_to_phase, random_ket

SQ2 = math.sqrt(2)

ARMS = ("L", "R")


def pattern_targets(pair):
    """The eight delta targets (path and grin, both photons, both arms)."""
    conv = pair.convention
    out = {}
    for photon in range(1, conv.n_photons + 1):
        want_left = photon % 2 == 1
        out[("path", photon, "L")] = 1.0 if want_left else 0.0
        out[("path", photon, "R")] = 0.0 if want_left else 1.0
        out[("grin", photon, "L")] = 0.0 if want_left else 1.0
        out[("grin", photon, "R")] = 1.0 if want_left else 0.0
    return out


def max_pattern_error(pair):
    report = ch.weak_value_report(pair)
    return max(
        abs(report.entries[key] - want) for key, want in pattern_targets(pair).items()
    )


def best_time(fn, repeats=7):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_single_cat_deltas():
    pair = ch.single()
    report = ch.weak_value_report(pair)
    values = (
        report.entries[("path", 1, "L")],
        report.entries[("path", 1, "R")],
        report.entries[("grin", 1, "L")],
        report.entries[("grin", 1, "R")],
    )
    error = max(abs(got - want) for got, want in zip(values, (1, 0, 0, 1)))
    assert error < 1e-12
    ch.weak_value_report(pair)  # warmup
    elapsed = best_time(lambda: ch.weak_value_report(pair))
    assert elapsed < 1e-3
    print(f"criterion 1: PASS (max error {error:.3e}, report in {elapsed * 1e6:.0f} us)")


def test_criterion_02_two_cat_deltas():
    error = max_pattern_error(ch.two_cat())
    assert error < 1e-12
    print(f"criterion 2: PASS (max error {error:.3e} over 8 entries)")


def test_criterion_03_general_family_grid():
    worst = 0.0
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        for phi in (0.0, 1.0, math.pi):
            worst = max(worst, max_pattern_error(ch.general_two_cat(theta, phi)))
    assert worst < 1e-12
    print(f"criterion 3: PASS (max error {worst:.3e} over 9 grid points)")


def test_criterion_04_n_cat_families():
    def support_formulas(n):
        a = sum(2 ** (2 * n - 2 * k) for k in range(1, n // 2 + 1))
        b = sum(2 ** (2 * n - 2 * j + 1) for j in range(1, (n + 1) // 2 + 1))
        post = [a, b + 1] + [b + 2 ** (l + 1) for l in range(n - 1)]
        return {a, b}, set(post)

    worst = 0.0
    elapsed_n8 = None
    for n in range(2, 9):
        start = time.perf_counter()
        pair = ch.n_cat(n)
        error = max_pattern_error(pair)
        if n == 8:
            elapsed_n8 = time.perf_counter() - start
        pre_support, post_support = support_formulas(n)
        assert set(pair.pre.amplitudes) == pre_support, n
        assert set(pair.post.amplitudes) == post_support, n
        worst = max(worst, error)
    assert worst < 1e-12
    assert elapsed_n8 < 1.0
    print(
        f"criterion 4: PASS (n=2..8, max error {worst:.3e}, n=8 in {elapsed_n8 * 1e3:.1f} ms)"
    )


def test_criterion_05_explicit_kets():
    explicit = {
        2: (
            {4: 1 / SQ2, 8: 1 / SQ2},
            {4: -1j / math.sqrt(3), 9: 1 / math.sqrt(3), 10: 1 / math.sqrt(3)},
        ),
        3: (
            {16: 1 / SQ2, 40: 1 / SQ2},
            {16: -1j / 2, 41: 0.5, 42: 0.5, 44: 0.5},
        ),
        4: (
            {80: 1 / SQ2, 160: 1 / SQ2},
            {80: -1j / math.sqrt(5), 161: 1 / math.sqrt(5), 162: 1 / math.sqrt(5),
             164: 1 / math.sqrt(5), 168: 1 / math.sqrt(5)},
        ),
        5: (
            {320: 1 / SQ2, 672: 1 / SQ2},
            {320: -1j / math.sqrt(6), 673: 1 / math.sqrt(6), 674: 1 / math.sqrt(6),
             676: 1 / math.sqrt(6), 680: 1 / math.sqrt(6), 688: 1 / math.sqrt(6)},
        ),
    }
    worst = 0.0
    for n, (pre_amps, post_amps) in explicit.items():
        pair = ch.n_cat(n)
        conv = pair.convention
        for got, want_amps in ((pair.pre, pre_amps), (pair.post, post_amps)):
            want = ch.make_ket(conv, want_amps)
            assert equal_up_to_phase(got, want), n
            worst = max(worst, 1.0 - ch.fidelity_up_to_phase(got, want))
    print(f"criterion 5: PASS (n=2..5 explicit kets, worst infidelity {worst:.3e})")


def test_criterion_06_solver_reproduction():
    worst_overlap = 1.0
    worst_residual = 0.0
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        for phi in (0.0, 1.0, math.pi):
            pair = ch.general_two_cat(theta, phi)
            conv = pair.convention
            targets = [
                ch.WeakValueTarget(ch.observable_for(conv, kind, photon, arm), value)
                for (kind, photon, arm), value in pattern_targets(pair).items()
            ]
            post = ch.solve_post(ch.assemble(pair.pre, targets))
            overlap = ch.fidelity_up_to_phase(ch.normalize(post), pair.post)
            residual = ch.verify(pair.pre, post, targets)
            worst_overlap = min(worst_overlap, overlap)
            worst_residual = max(worst_residual, residual)
    assert worst_overlap >= 1 - 1e-10
    assert worst_residual < 1e-10
    print(
        "criterion 6: PASS (9-point grid, min overlap "
        f"{worst_overlap:.15f}, max residual {worst_residual:.3e})"
    )


def test_criterion_07_postselection_probability():
    circuit = ch.two_cat_device()
    exact = ch.run_exact(circuit).success_probability
    assert abs(exact - 1 / 6) < 1e-12
    shots = 60000
    record = ch.run_monte_carlo(circuit, shots=shots, seed=7)
    sigma = math.sqrt(shots * (1 / 6) * (5 / 6))
    deviation = abs(record.counts["D5"] - shots / 6)
    assert deviation <= 5 * sigma
    print(
        f"criterion 7: PASS (exact 1/6 within {abs(exact - 1 / 6):.1e}, "
        f"60000-shot run off by {deviation / sigma:.2f} sigma)"
    )


def test_criterion_08_preselection_block():
    fidelity = ch.fidelity_up_to_phase(
        ch.run_pre_block(ch.two_cat_device()), ch.two_cat().pre
    )
    assert fidelity >= 1 - 1e-12
    print(f"criterion 8: PASS (pre-selection block fidelity {fidelity:.15f})")


def test_criterion_09_pointer_convergence():
    pair = ch.two_cat()
    conv = pair.convention
    couplings = (1e-2, 5e-3, 2.5e-3)
    start = time.perf_counter()
    checked = 0
    for photon in (1, 2):
        for kind in ("path", "grin"):
            for arm in ARMS:
                obs = ch.observable_for(conv, kind, photon, arm)
                w = ch.weak_value(obs, pair)
                deviations = []
                for g in couplings:
                    cfg = ch.PointerConfig(g=g, sigma_p=0.5)
                    mean_x, _ = ch.pointer_shift(obs, pair, cfg)
                    deviations.append(abs(mean_x / g - w.real))
                for d_prev, d_next in zip(deviations, deviations[1:]):
                    assert d_next <= d_prev / 3.5 + 1e-12 or d_next <= 1e-9, (
                        photon, kind, arm, deviations,
                    )
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert checked == 8
    print(
        f"criterion 9: PASS (8 observables x 3 couplings in {elapsed:.2f} s, "
        "deviation falls at least 3.5x per halving or sits at the floor)"
    )


def test_criterion_10_property_suites():
    cases = 100

    # scale invariance of the weak value under rescaling either state
    rng = np.random.default_rng(100)
    for _ in range(cases):
        n = int(rng.integers(1, 3))
        pair = ch.pair_from_states(random_ket(rng, n), random_ket(rng, n))
        obs = ch.path_projector(pair.convention, 1, "L")
        w = ch.weak_value(obs, pair)
        scale_pre, scale_post = (complex(x, y) for x, y in rng.normal(size=(2, 2)))
        if abs(scale_pre) < 1e-3 or abs(scale_post) < 1e-3:
            continue
        scaled = ch.pair_from_states(
            ch.make_ket(pair.convention,
                        {k: v * scale_pre for k, v in pair.pre.amplitudes.items()}),
            ch.make_ket(pair.convention,
                        {k: v * scale_post for k, v in pair.post.amplitudes.items()}),
        )
        assert abs(ch.weak_value(obs, scaled) - w) < 1e-10

    # linearity in the observable (real combinations keep Hermiticity)
    rng = np.random.default_rng(101)
    for _ in range(cases):
        pair = ch.pair_from_states(random_ket(rng, 1), random_ket(rng, 1))
        conv = pair.convention
        obs_a = ch.path_projector(conv, 1, str(rng.choice(ARMS)))
        obs_b = ch.grin_observable(conv, 1, str(rng.choice(ARMS)))
        a, b = rng.normal(size=2)
        w_sum = a * ch.weak_value(obs_a, pair) + b * ch.weak_value(obs_b, pair)
        combo = ch.operator_from_dense(
            conv, a * obs_a.to_dense() + b * obs_b.to_dense()
        )
        assert abs(ch.weak_value(combo, pair) - w_sum) < 1e-10

    # arm sum rules: path projectors resolve to 1, grins to the full sigma
    rng = np.random.default_rng(102)
    for _ in range(cases):
        n = int(rng.integers(1, 4))
        pair = ch.pair_from_states(random_ket(rng, n), random_ket(rng, n))
        conv = pair.convention
        photon = int(rng.integers(1, n + 1))
        path_sum = sum(
            ch.weak_value(ch.path_projector(conv, photon, arm), pair) for arm in ARMS
        )
        assert abs(path_sum - 1.0) < 1e-10
        grin_sum = sum(
            ch.weak_value(ch.grin_observable(conv, photon, arm), pair) for arm in ARMS
        )
        sigma_w = ch.weak_value(ch.circular_sigma_z(conv, photon), pair)
        assert abs(grin_sum - sigma_w) < 1e-10

    # projector algebra: idempotent, complete
    rng = np.random.default_rng(103)
    for _ in range(cases):
        n = int(rng.integers(1, 4))
        conv = ch.BasisConvention(n)
        ket = random_ket(rng, n)
        photon = int(rng.integers(1, n + 1))
        arm = str(rng.choice(ARMS))
        proj = ch.path_projector(conv, photon, arm)
        once = ch.apply(proj, ket)
        twice = ch.apply(proj, once)
        diff = max(
            abs(once.amplitudes.get(k, 0j) - twice.amplitudes.get(k, 0j))
            for k in set(once.amplitudes) | set(twice.amplitudes) | {0}
        )
        assert diff < 1e-12
        left = ch.apply(ch.path_projector(conv, photon, "L"), ket)
        right = ch.apply(ch.path_projector(conv, photon, "R"), ket)
        recombined = ch.superpose([(1.0, left), (1.0, right)])
        assert ch.fidelity_up_to_phase(recombined, ket) >= 1 - 1e-12

    # circuit unitarity and probability conservation on random inputs
    rng = np.random.default_rng(104)
    circuit = ch.two_cat_device()
    elements = circuit.pre_elements + circuit.post_elements
    for _ in range(cases):
        ket = random_ket(rng, 2)
        out = optics.propagate(optics.ket_to_state(ket), elements)
        norm = math.sqrt(sum(abs(amp) ** 2 for amp in out.values()))
        assert abs(norm - 1.0) < 1e-12
        by_pattern: dict[str, float] = {}
        for config, amp in out.items():
            labels = sorted(
                circuit.detectors[(i + 1, mode, pol)]
                for i, (mode, pol) in enumerate(config)
            )
            key = "+".join(dict.fromkeys(labels))
            by_pattern[key] = by_pattern.get(key, 0.0) + abs(amp) ** 2
        assert abs(sum(by_pattern.values()) - 1.0) < 1e-12

    print(f"criterion 10: PASS (5 property suites, {cases} randomized cases each)")
