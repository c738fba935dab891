"""Canned pre/post-selected pairs and their expected weak-value patterns.

Four families:

* ``single``: one photon, pre (i|L> + |R>)|H>/sqrt(2), post (|LH> + |RV>)/sqrt(2).
  Path weak values localize the photon on the left arm while the circular
  polarization's weak values localize on the right arm.
* ``two_cat``: two photons, pre (|0100> + |1000>)/sqrt(2), post
  (-i|0100> + |1001> + |1010>)/sqrt(3); the single-photon pattern on photon 1
  and its mirror image on photon 2.
* ``general_two_cat(theta, phi)``: pre cos(theta)|0100> + e^{i phi} sin(theta)|1000>
  with post -i|0100> + e^{i phi} cot(theta)(|1001> + |1010>), reproducing the
  same eight-delta pattern for every theta in (0, pi/2) and every phi. The
  post state is kept unnormalized (weak values are scale invariant).
* ``n_cat(n)``: the n-photon binary-index family. The two pre-state terms and
  the n+1 post-state terms are indexed by closed-form bit sums; odd photons
  carry path-left/grin-right, even photons the mirror.

`expected_pattern` returns the delta pattern as a pure lookup with no linear
algebra, so it can serve as an independent oracle against the computed
weak-value reports.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import hilbert
from .errors import DegenerateScenarioError, InputError
from .weakval import PrePostPair, report_keys

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ScenarioId:
    """Addressable scenario: kind plus its parameters (if any)."""

    kind: str
    theta: float | None = None
    phi: float | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("single", "two_cat", "general_two_cat", "n_cat"):
            raise InputError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "general_two_cat" and (self.theta is None or self.phi is None):
            raise InputError("general_two_cat needs theta and phi")
        if self.kind == "n_cat" and (self.n is None or self.n < 2):
            raise InputError("n_cat needs n >= 2")

    @property
    def n_photons(self) -> int:
        if self.kind == "single":
            return 1
        if self.kind == "n_cat":
            return int(self.n)
        return 2


def single() -> PrePostPair:
    conv = hilbert.BasisConvention(1)
    pre = hilbert.make_ket(conv, {0: 1j / math.sqrt(2), 2: 1 / math.sqrt(2)})
    post = hilbert.make_ket(conv, {0: 1 / math.sqrt(2), 3: 1 / math.sqrt(2)})
    return PrePostPair(pre, post, 1)


def pre_state_indices(n: int) -> tuple[int, int]:
    """The two basis indices of the n-photon pre-state's terms."""
    if n < 2:
        raise InputError(f"n_cat requires n >= 2, got {n}")
    index_a = sum(2 ** (2 * n - 2 * k) for k in range(1, n // 2 + 1))
    index_b = sum(2 ** (2 * n - 2 * j + 1) for j in range(1, (n + 1) // 2 + 1))
    return index_a, index_b


def post_state_indices(n: int) -> tuple[int, int, tuple[int, ...]]:
    """Basis indices of the n+1 post-state terms: (-i term, main term, extras).

    The main term flips the last polarization bit of the second pre-state
    term; the extras flip each higher polarization bit instead.
    """
    index_a, index_b = pre_state_indices(n)
    main = index_b + 1
    extras = tuple(index_b + 2 ** (l + 1) for l in range(n - 1))
    return index_a, main, extras


def n_cat(n: int) -> PrePostPair:
    conv = hilbert.BasisConvention(n)
    index_a, index_b = pre_state_indices(n)
    pre = hilbert.make_ket(
        conv, {index_a: 1 / math.sqrt(2), index_b: 1 / math.sqrt(2)}
    )
    _, main, extras = post_state_indices(n)
    coeff = 1 / math.sqrt(n + 1)
    amps = {index_a: -1j * coeff, main: coeff + 0j}
    for e in extras:
        amps[e] = coeff + 0j
    post = hilbert.make_ket(conv, amps)
    return PrePostPair(pre, post, n)


def two_cat() -> PrePostPair:
    return n_cat(2)


def general_two_cat(theta: float, phi: float) -> PrePostPair:
    """The one-parameter-entanglement family; degenerate at theta in {0, pi/2}."""
    if not (_BOUNDARY_TOL < theta < math.pi / 2 - _BOUNDARY_TOL):
        raise DegenerateScenarioError(
            f"theta={theta} is at or beyond the boundary of (0, pi/2): "
            "cot(theta) is singular or the pre-state is unentangled"
        )
    conv = hilbert.BasisConvention(2)
    phase = cmath.exp(1j * phi)
    pre = hilbert.make_ket(conv, {4: math.cos(theta) + 0j, 8: phase * math.sin(theta)})
    cot = math.cos(theta) / math.sin(theta)
    post = hilbert.make_ket(conv, {4: -1j, 9: phase * cot, 10: phase * cot})
    return PrePostPair(pre, post, 2)


def build_pair(scenario: ScenarioId) -> PrePostPair:
    if scenario.kind == "single":
        return single()
    if scenario.kind == "two_cat":
        return two_cat()
    if scenario.kind == "general_two_cat":
        return general_two_cat(scenario.theta, scenario.phi)
    return n_cat(scenario.n)


def expected_pattern(scenario: ScenarioId) -> dict[tuple[str, int, str], int]:
    """The 0/1 delta pattern of weak values, as a pure lookup.

    Odd photons localize path on the left arm and grin on the right; even
    photons are mirrored. Keys are the reports' own (`weakval.report_keys`).
    """
    n = scenario.n_photons
    return dict(zip(report_keys(n), (1, 0, 0, 1, 0, 1, 1, 0) * ((n + 1) // 2)))
