"""Quick test that the benchmark's checks hold for right answers and catch wrong ones.

    python3 -m pytest bench/test_checks.py -q

Each checker gets a right answer, built from the closed forms alone, and one
deliberately wrong answer that it must reject.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle as O  # noqa: E402


def test_kronecker_and_bit_mask_forms_agree():
    rng = np.random.default_rng(0)
    for n in range(1, 5):
        amps = {int(k): complex(*rng.normal(size=2)) for k in rng.choice(4**n, 3, replace=False)}
        a, b = ("path", n, "R"), ("grin", 1, "L")
        for spec in (a, b, ("sigma", n), ("id",), ("add", a, b), ("scale", 0.5 - 2j, b), ("compose", b, ("sigma", 1))):
            dense = O.dense_operator(n, spec) @ O._dense(n, amps)
            assert np.allclose(dense, O._dense(n, O.apply_sparse(n, spec, amps)), atol=1e-15), (n, spec)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_forms_give_the_delta_pattern(n):
    pre, post = O.n_cat_states(n)
    for spec, want in O.delta_pattern(n).items():
        assert abs(O.weak_value(n, spec, pre, post) - want) < 1e-12


def test_synthesis_check_rejects_a_perturbed_post():
    pre, post = O.general_two_cat_states(0.7, 1.3)
    targets = [(spec, complex(w)) for spec, w in O.delta_pattern(2).items()]
    O.check_synthesis(2, pre, targets, post)
    wrong = dict(post)
    wrong[0b1001] *= 1 + 1e-6
    with pytest.raises(O.Mismatch):
        O.check_synthesis(2, pre, targets, wrong)


def test_count_check_rejects_counts_moved_between_patterns():
    shots = 1_000_000
    probs = {"D1": 5 / 16, "D2+D5": 1 / 8, "D4+D5": 1 / 8, "D5": 1 / 6, "D6": 13 / 48}
    counts = {k: round(shots * p) for k, p in probs.items()}
    counts["D6"] += shots - sum(counts.values())
    O.check_counts(counts, shots, probs)
    moved = dict(counts)
    sigma = math.sqrt(shots * probs["D5"] * (1 - probs["D5"]))
    moved["D5"] -= math.ceil(6 * sigma)
    moved["D1"] += math.ceil(6 * sigma)
    with pytest.raises(O.Mismatch):
        O.check_counts(moved, shots, probs)
    one = dict(counts, D5=counts["D5"] - 1, D1=counts["D1"] + 1)
    O.check_counts(one, shots, probs)  # within the binomial bound...
    with pytest.raises(O.Mismatch):
        O.check_same(counts, one, "counts")  # ...but not a repeat of the first run


def test_report_check_rejects_a_flipped_pattern_entry():
    pre, post = O.n_cat_states(3)
    entries = {key: complex(w) for key, w in O.delta_pattern(3).items()}
    O.check_report(3, entries, pre, post, O.delta_pattern(3), 1e-10)
    entries[("grin", 2, "L")] = 1 - entries[("grin", 2, "L")]
    with pytest.raises(O.Mismatch):
        O.check_report(3, entries, pre, post, O.delta_pattern(3), 1e-10)


def test_pointer_check_rejects_a_readout_that_stops_converging():
    gs = [1e-2, 5e-3, 2.5e-3]
    good = [(g * (1 - 0.4 * g * g), 0.0) for g in gs]
    O.check_pointer(1 + 0j, gs, good, 0.5)
    stuck = [(g * (1 - 1e-4), 0.0) for g in gs]
    with pytest.raises(O.Mismatch):
        O.check_pointer(1 + 0j, gs, stuck, 0.5)


def test_optics_checks_reject_wrong_probabilities_and_posts():
    probs = {"D1": 5 / 16, "D2+D5": 1 / 8, "D4+D5": 1 / 8, "D5": 1 / 6, "D6": 13 / 48}
    O.check_probabilities(probs)
    O.check_success(probs, "D5", 1 / 6)
    with pytest.raises(O.Mismatch):
        O.check_probabilities(dict(probs, D6=probs["D6"] + 1e-9))
    with pytest.raises(O.Mismatch):
        O.check_success(dict(probs, D5=1 / 6 + 1e-9), "D5", 1 / 6)
    _, target = O.general_two_cat_states(0.4, 2.0)
    device_pre, _ = O.n_cat_states(2)
    assert O.success_probability(target, device_pre) == pytest.approx(1 / (2 * (1 + 2 / math.tan(0.4) ** 2)))
    O.check_fidelity(target, target)
    with pytest.raises(O.Mismatch):
        O.check_fidelity(dict(target) | {0b1001: target[0b1001] * 1.001}, target)


def test_linearity_check_rejects_a_wrong_identity_weak_value():
    values = {"a": 0.3 + 0.1j, "b": -1.2j, "add": 0.3 - 1.1j, "scale": 2 * (0.3 + 0.1j), "id": 1 + 0j}
    O.check_linearity(values, 2)
    with pytest.raises(O.Mismatch):
        O.check_linearity(dict(values, id=1 + 1e-6j), 2)


def test_benchmark_json_names_the_printed_metrics():
    import run
    import spans

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
