"""Reference computations and output checks, written apart from the package.

Everything here follows the basis convention that `cheshire.hilbert`
documents, not its code: an n-photon state lives on 2n two-level factors
ordered path_1 ... path_n, pol_1 ... pol_n, with L/H encoded 0 and R/V
encoded 1, and basis index k is the 2n-bit string read most significant bit
first. The circular polarization observable maps H to iV and V to -iH.

Observables are small tuples:

    ("path", photon, arm)   ("grin", photon, arm)   ("sigma", photon)   ("id",)
    ("add", A, B)           ("scale", c, A)          ("compose", A, B)   # A @ B

For n <= 4 weak values come from dense Kronecker products of 2x2 factor
matrices; above that, from bit-mask formulas on sparse amplitude dicts. The
scenario states and the delta pattern are the paper's closed forms. Each
`check_*` function raises `Mismatch` when the program's answer is wrong.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce

import numpy as np

DENSE_MAX_N = 4
WEAK_TOL = 1e-9
PROB_TOL = 1e-12
QUAD_FACTOR = 3.5   # shift/g deviation must fall this much per halving of g
LINEAR_FACTOR = 1.75  # momentum readout: first-order convergence, same slack
DEV_FLOOR = 1e-9

_ARM_BIT = {"L": 0, "R": 1}
_PROJ = {"L": np.diag([1.0 + 0j, 0j]), "R": np.diag([0j, 1.0 + 0j])}
_SIGMA = np.array([[0, -1j], [1j, 0]])  # column H -> i V, column V -> -i H
_EYE = np.eye(2, dtype=complex)


class Mismatch(AssertionError):
    """The program's output disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# closed-form states of the paper's families


def path_bit(n: int, photon: int) -> int:
    """Bit position (from the least significant end) of a photon's path factor."""
    return 2 * n - photon


def pol_bit(n: int, photon: int) -> int:
    return n - photon


def n_cat_states(n: int) -> tuple[dict[int, complex], dict[int, complex]]:
    """n-photon cat: all photons horizontal.

    pre  = (|A> + |B>)/sqrt(2), A: even photons right, B: odd photons right;
    post = (-i|A> + sum_p |B with photon p vertical>)/sqrt(n + 1).
    """
    a = sum(1 << path_bit(n, p) for p in range(2, n + 1, 2))
    b = sum(1 << path_bit(n, p) for p in range(1, n + 1, 2))
    pre = {a: 1 / math.sqrt(2) + 0j, b: 1 / math.sqrt(2) + 0j}
    c = 1 / math.sqrt(n + 1)
    post = {a: -1j * c}
    for p in range(1, n + 1):
        post[b | (1 << pol_bit(n, p))] = c + 0j
    return pre, post


def general_two_cat_states(theta: float, phi: float) -> tuple[dict[int, complex], dict[int, complex]]:
    """pre cos(t)|LR,HH> + e^{i phi} sin(t)|RL,HH>;
    post -i|LR,HH> + e^{i phi} cot(t) (|RL,HV> + |RL,VH>), unnormalized."""
    lr, rl = 0b0100, 0b1000
    e = cmath.exp(1j * phi)
    cot = math.cos(theta) / math.sin(theta)
    pre = {lr: math.cos(theta) + 0j, rl: e * math.sin(theta)}
    post = {lr: -1j + 0j, rl | 0b01: e * cot, rl | 0b10: e * cot}
    return pre, post


def delta_pattern(n: int) -> dict[tuple[str, int, str], int]:
    """Odd photons: path weak value 1 on L, grin 1 on R; even photons mirrored."""
    pattern = {}
    for p in range(1, n + 1):
        home, away = ("L", "R") if p % 2 == 1 else ("R", "L")
        pattern[("path", p, home)] = 1
        pattern[("path", p, away)] = 0
        pattern[("grin", p, home)] = 0
        pattern[("grin", p, away)] = 1
    return pattern


# ---------------------------------------------------------------------------
# observables: dense Kronecker form and sparse bit-mask form


def dense_operator(n: int, spec: tuple) -> np.ndarray:
    kind = spec[0]
    if kind == "add":
        return dense_operator(n, spec[1]) + dense_operator(n, spec[2])
    if kind == "scale":
        return complex(spec[1]) * dense_operator(n, spec[2])
    if kind == "compose":
        return dense_operator(n, spec[1]) @ dense_operator(n, spec[2])
    factors = [_EYE] * (2 * n)
    if kind in ("path", "grin"):
        factors[spec[1] - 1] = _PROJ[spec[2]]
    if kind in ("grin", "sigma"):
        factors[n + spec[1] - 1] = _SIGMA
    return reduce(np.kron, factors)


def apply_sparse(n: int, spec: tuple, amps: dict[int, complex]) -> dict[int, complex]:
    kind = spec[0]
    if kind == "add":
        out = dict(apply_sparse(n, spec[1], amps))
        for k, v in apply_sparse(n, spec[2], amps).items():
            out[k] = out.get(k, 0j) + v
        return out
    if kind == "scale":
        return {k: complex(spec[1]) * v for k, v in apply_sparse(n, spec[2], amps).items()}
    if kind == "compose":
        return apply_sparse(n, spec[1], apply_sparse(n, spec[2], amps))
    out = dict(amps)
    if kind in ("path", "grin"):
        shift, want = path_bit(n, spec[1]), _ARM_BIT[spec[2]]
        out = {k: v for k, v in out.items() if (k >> shift) & 1 == want}
    if kind in ("grin", "sigma"):
        mask = 1 << pol_bit(n, spec[1])
        out = {k ^ mask: (-1j if k & mask else 1j) * v for k, v in out.items()}
    return out


def _dense(n: int, amps: dict[int, complex]) -> np.ndarray:
    vec = np.zeros(4**n, dtype=complex)
    for k, v in amps.items():
        vec[k] = v
    return vec


def braket(bra: dict[int, complex], ket: dict[int, complex]) -> complex:
    return sum((bra[k].conjugate() * v for k, v in ket.items() if k in bra), 0j)


def norm(amps: dict[int, complex]) -> float:
    return math.sqrt(sum(abs(v) ** 2 for v in amps.values()))


def weak_value(n: int, spec: tuple, pre: dict, post: dict) -> complex:
    """<post|O|pre> / <post|pre>: Kronecker products for n <= 4, bit masks above."""
    if n <= DENSE_MAX_N:
        pre_v, post_v = _dense(n, pre), _dense(n, post)
        return complex(np.vdot(post_v, dense_operator(n, spec) @ pre_v) / np.vdot(post_v, pre_v))
    return braket(post, apply_sparse(n, spec, pre)) / braket(post, pre)


def spec_text(spec: tuple) -> str:
    """The CLI descriptor of an elementary observable."""
    if spec[0] == "sigma":
        return f"sigma:{spec[1]}"
    if spec[0] == "id":
        return "id"
    return f"{spec[0]}:{spec[1]}:{spec[2]}"


# ---------------------------------------------------------------------------
# checks


def check_synthesis(n: int, pre: dict, targets: list[tuple[tuple, complex]], post: dict) -> None:
    """Every target's weak value is recomputed within WEAK_TOL, and <post|pre> != 0."""
    overlap = braket(post, pre)
    _require(abs(overlap) > 1e-9 * norm(post) * norm(pre), f"post is orthogonal to pre ({overlap})")
    for spec, want in targets:
        got = weak_value(n, spec, pre, post)
        _require(abs(got - want) <= WEAK_TOL, f"weak value of {spec} is {got}, target {want}")


def check_report(n: int, entries: dict, pre: dict, post: dict, pattern: dict | None, tol: float) -> None:
    """Report entries equal the oracle's weak values and, if given, the delta pattern."""
    _require(set(entries) == {(k, p, a) for p in range(1, n + 1) for k in ("path", "grin") for a in "LR"},
             "report keys are not the 4n path/grin entries")
    for (kind, photon, arm), got in entries.items():
        if pattern is not None:
            want = pattern[(kind, photon, arm)]
            _require(abs(got - want) <= tol, f"{kind}:{photon}:{arm} is {got}, delta pattern says {want}")
        ref = weak_value(n, (kind, photon, arm), pre, post)
        _require(abs(got - ref) <= max(tol, WEAK_TOL * abs(ref)), f"{kind}:{photon}:{arm} is {got}, oracle {ref}")


def check_linearity(values: dict[str, complex], scale: complex) -> None:
    """Weak values are linear in the observable and w(I) = 1."""
    wa, wb = values["a"], values["b"]
    _require(abs(values["id"] - 1) <= WEAK_TOL, f"w(I) = {values['id']}")
    _require(abs(values["add"] - (wa + wb)) <= WEAK_TOL * (1 + abs(wa) + abs(wb)), "w(A+B) != w(A)+w(B)")
    _require(abs(values["scale"] - scale * wa) <= WEAK_TOL * (1 + abs(scale * wa)), "w(cA) != c w(A)")


def check_pointer(want: complex, gs: list[float], shifts: list[tuple[float, float]], sigma_p: float) -> None:
    """shift/g -> Re w quadratically in g; momentum/(2 g sp^2) -> Im w at least linearly."""
    dev_x = [abs(x / g - want.real) for g, (x, _) in zip(gs, shifts)]
    dev_p = [abs(p / (2 * g * sigma_p**2) - want.imag) for g, (_, p) in zip(gs, shifts)]
    for devs, factor, what in ((dev_x, QUAD_FACTOR, "position"), (dev_p, LINEAR_FACTOR, "momentum")):
        for (g0, d0), (g1, d1) in zip(zip(gs, devs), zip(gs[1:], devs[1:])):
            falls = d1 <= d0 / factor ** math.log2(g0 / g1) + 1e-12
            _require(falls or d1 <= DEV_FLOOR, f"{what} readout deviations {devs} do not converge")


def check_probabilities(probs: dict[str, float], tol: float = PROB_TOL) -> None:
    _require(all(p >= -tol for p in probs.values()), f"negative probability in {probs}")
    _require(abs(sum(probs.values()) - 1) <= tol, f"probabilities sum to {sum(probs.values())}")


def success_probability(post: dict, pre: dict) -> float:
    """|<post_hat|pre_hat>|^2: the chance a device realizing `post` accepts `pre`."""
    return abs(braket(post, pre)) ** 2 / (norm(post) ** 2 * norm(pre) ** 2)


def check_success(probs: dict[str, float], success: str, want: float, tol: float = PROB_TOL) -> None:
    got = probs.get(success, 0.0)
    _require(abs(got - want) <= tol, f"P({success}) = {got}, expected {want}")


def check_fidelity(got: dict, want: dict, tol: float = 1e-12) -> None:
    fid = abs(braket(got, want)) / (norm(got) * norm(want))
    _require(fid >= 1 - tol, f"fidelity {fid} with the target")


def check_counts(counts: dict[str, int], shots: int, probs: dict[str, float]) -> None:
    """Counts sum to the shots and each lies within 5 sigma of its binomial mean."""
    _require(sum(counts.values()) == shots, f"counts sum to {sum(counts.values())}, not {shots}")
    _require(set(counts) <= set(probs), f"counts name unknown patterns {set(counts) - set(probs)}")
    for name, p in probs.items():
        c = counts.get(name, 0)
        sigma = math.sqrt(shots * p * (1 - p))
        _require(abs(c - shots * p) <= 5 * sigma + 1e-9, f"{name}: {c} counts, expected {shots * p:.1f}")


def check_same(first, again, what: str) -> None:
    """A repeated operation must reproduce its first output exactly."""
    _require(first == again, f"{what}: repeated run differs from the first")
