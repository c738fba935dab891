"""Linear-optical circuit simulator for the two-photon interferometer.

States are sparse maps from a configuration, one (mode, polarization) pair
per photon, to a complex amplitude. Spatial modes are free-form identifiers
(L, R, w1, ...); polarization is H or V. The initial state is the
circuit's source. Two element classes act unitarily on their addressed
subspace:

* `Coupler` on two (mode, pol) ports of one photon: a 2x2 unitary,
  matrix[row][col] taking port col to port row; every other port passes
  unchanged. A wave plate couples (arm, H) and (arm, V) with its Jones
  matrix: the file's `hwp` swaps H and V, `hadamard` is
  (1/sqrt 2)[[1, 1], [1, -1]], `phase shift=phi` is e^{i phi} times the
  identity and `mirror` is the identity. A polarizing splitter `pbs` on
  ports (a, b) swaps (a, V) and (b, V) with the hwp matrix, so H stays on
  its port and V changes ports.
* `BeamSplitter` on a pair of joint path configurations (one mode per
  photon): the 2x2 unitary [[t, -conj(r)], [r, conj(t)]] applied
  identically across polarization blocks, with |t|^2 + |r|^2 = 1. The 50:50
  symmetric convention is t = 1/sqrt(2), r = i/sqrt(2). Output ports may
  relabel the modes. "Adjusting" a splitter means choosing (t, r);
  splitters marked adjustable are the ones `calibrate_postselection`
  retunes.

Circuit description file, one directive per line ('#' starts a comment):

    photons 2
    source spdc modes=L,L            # or: source ket path=L,R pol=H,V
    element pbs photon=1 ports=L,R
    element hwp photon=1 arm=R
    element hadamard photon=2 arm=L
    element phase photon=2 arm=L shift=pi/2
    element mirror photon=1 arm=L
    element bs name=BS1 in_a=L,R in_b=R,L out_a=L,R out_b=R,L \
               t=1/sqrt(2) r=-1/sqrt(2) adjustable
    postselection                    # splits pre-block from post-block
    detector D5 photon=1 mode=R pol=H
    postselect-on D5

Numeric parameters are arithmetic expressions (pi, i, sqrt, ...). Elements
before the `postselection` marker form the pre-selection block; the rest is
the post-selection block. Detector lines bind (photon, mode, polarization)
ports to labels; a run groups final configurations by their coincidence
pattern (the sorted set of labels the photons land on, joined with '+', so a
label may not hold '+'), and the `postselect-on` label names the success
pattern in which every photon lands on that detector. A directive refuses
keys and flags it does not know. Splitter names, where given, are distinct:
calibration reports its settings by name.

Monte Carlo runs sample coincidence patterns from the exact distribution in
4096-shot blocks. Block b draws its counts with one multinomial draw from a
generator seeded with (seed, b), so counts depend only on (circuit, shots,
seed), and a run of k whole blocks is a prefix of every longer run with the
same seed. numpy is imported only there, by `run_monte_carlo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from itertools import product
from typing import Iterable, Sequence

from . import hilbert
from .errors import (
    CalibrationError,
    CircuitConfigError,
    CircuitParseError,
    InputError,
    ZeroNormError,
)
from .expr import parse_complex, parse_real
from .hilbert import PRUNE_THRESHOLD, BasisConvention, Ket

Config = tuple[tuple[str, str], ...]
OpticsState = dict[Config, complex]

_POLS = ("H", "V")
_BLOCK = 4096
CALIBRATION_THRESHOLD = 1e-10  # largest residual calibrate_postselection accepts
_PLUS_LABEL = "contains '+', which joins the labels of a coincidence pattern"


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class Coupler:
    """2x2 unitary between two (mode, pol) ports of one photon; other ports pass unchanged.
    A wave plate's matrix is its Jones matrix (Jones, JOSA 31, 488, 1941)."""

    photon: int
    ports: tuple[tuple[str, str], tuple[str, str]]
    matrix: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self):
        for mode, pol in self.ports:
            if not mode or pol not in _POLS:
                raise InputError(f"coupler port ({mode!r}, {pol!r}) needs a mode and pol H or V")
        if self.ports[0] == self.ports[1]:
            raise InputError(f"coupler on photon {self.photon} needs two distinct ports")
        (a, b), (c, d) = self.matrix
        defect = max(abs(abs(a) ** 2 + abs(c) ** 2 - 1), abs(abs(b) ** 2 + abs(d) ** 2 - 1),
                     abs(a.conjugate() * b + c.conjugate() * d))
        if defect > 1e-12:
            raise InputError(f"coupler on ports {self.ports}: matrix {self.matrix} is not unitary")


@dataclass(frozen=True)
class BeamSplitter:
    """Two-port splitter on joint path configurations (one mode per photon)."""

    in_a: tuple[str, ...]
    in_b: tuple[str, ...]
    out_a: tuple[str, ...]
    out_b: tuple[str, ...]
    t: complex
    r: complex
    name: str = ""
    adjustable: bool = False

    def __post_init__(self):
        if abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0) > 1e-12:
            raise InputError(
                f"beam splitter {self.name or '(unnamed)'}: |t|^2 + |r|^2 must be 1, "
                f"got t={self.t}, r={self.r}"
            )
        if self.in_a == self.in_b or self.out_a == self.out_b:
            raise InputError(f"beam splitter {self.name!r} needs two distinct port configurations")


Element = Coupler | BeamSplitter

_INV_SQRT2 = 1 / math.sqrt(2)
_SWAP = ((0.0, 1.0), (1.0, 0.0))
# constant plates of the circuit file; `phase` builds its matrix from shift=
_PLATES = {
    "hwp": _SWAP,
    "hadamard": ((_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2)),
    "mirror": ((1.0, 0.0), (0.0, 1.0)),
}


# ---------------------------------------------------------------------------
# circuit


@dataclass(frozen=True)
class Circuit:
    """A parsed circuit file. `source` is the initial OpticsState: the spdc
    pair's two configurations, or the one configuration of a ket source."""

    n_photons: int
    source: OpticsState
    pre_elements: tuple[Element, ...]
    post_elements: tuple[Element, ...]
    detectors: dict[tuple[int, str, str], str]
    postselect_on: str

    def __post_init__(self):
        """A normalized source; source, elements and detectors address photons 1..n with H/V pols."""
        n = self.n_photons
        for config in self.source:
            if len(config) != n or any(len(port) != 2 or port[1] not in _POLS for port in config):
                raise CircuitConfigError(f"source configuration {config} needs one (mode, H/V) per photon")
        if abs(sum(abs(a) ** 2 for a in self.source.values()) - 1.0) > 1e-12:
            raise CircuitConfigError(f"source state {self.source} is not normalized")
        for (photon, mode, pol), label in self.detectors.items():
            if not 1 <= photon <= n or pol not in _POLS:
                raise CircuitConfigError(f"detector port photon={photon} mode={mode} pol={pol} is invalid")
            if "+" in label:
                raise CircuitConfigError(f"detector label {label!r} {_PLUS_LABEL}")
        names: set[str] = set()
        for el in self.pre_elements + self.post_elements:
            if isinstance(el, BeamSplitter):
                if el.name:
                    if el.name in names:
                        raise CircuitConfigError(f"duplicate beam splitter name {el.name!r}")
                    names.add(el.name)
                for cfg in (el.in_a, el.in_b, el.out_a, el.out_b):
                    if len(cfg) != n:
                        raise CircuitConfigError(
                            f"beam splitter {el.name!r} port configuration {cfg} "
                            f"does not list one mode per photon"
                        )
            else:
                if not 1 <= el.photon <= n:
                    raise CircuitConfigError(f"element {el} addresses a missing photon")


# ---------------------------------------------------------------------------
# propagation


def apply_element(state: OpticsState, element: Element) -> OpticsState:
    out: OpticsState = {}
    kind = type(element)
    if kind is BeamSplitter:
        block_a: dict[tuple[str, ...], complex] = {}
        block_b: dict[tuple[str, ...], complex] = {}
        for config, amp in state.items():
            modes, pols = zip(*config)
            if modes == element.in_a:
                block_a[pols] = block_a.get(pols, 0j) + amp
            elif modes == element.in_b:
                block_b[pols] = block_b.get(pols, 0j) + amp
            else:
                out[config] = out.get(config, 0j) + amp
        t, r = element.t, element.r
        for pols in sorted(set(block_a) | set(block_b)):
            a_in = block_a.get(pols, 0j)
            b_in = block_b.get(pols, 0j)
            cfg_a = tuple(zip(element.out_a, pols))
            cfg_b = tuple(zip(element.out_b, pols))
            for cfg in (cfg_a, cfg_b):
                if cfg in out:
                    raise CircuitConfigError(
                        f"beam splitter {element.name!r} output {cfg} collides with "
                        "an occupied pass-through configuration"
                    )
            out[cfg_a] = out.get(cfg_a, 0j) + t * a_in - r.conjugate() * b_in
            out[cfg_b] = out.get(cfg_b, 0j) + r * a_in + t.conjugate() * b_in
    elif kind is Coupler:
        i, (p, q) = element.photon - 1, element.ports
        (a, b), (c, d) = element.matrix
        # each column of the matrix as its nonzero (row port, entry) pairs
        col_p = [(row_port, e) for row_port, e in ((p, a), (q, c)) if e]
        col_q = [(row_port, e) for row_port, e in ((p, b), (q, d)) if e]
        for config, amp in state.items():
            port = config[i]
            if port == p:
                column = col_p
            elif port == q:
                column = col_q
            else:
                out[config] = out.get(config, 0j) + amp
                continue
            for row_port, entry in column:
                cfg = config if row_port == port else config[:i] + (row_port,) + config[i + 1 :]
                out[cfg] = out.get(cfg, 0j) + entry * amp
    else:
        raise InputError(f"unknown element {element!r}")
    return {c: a for c, a in out.items() if abs(a) >= PRUNE_THRESHOLD}


def propagate(state: OpticsState, elements: Iterable[Element]) -> OpticsState:
    for element in elements:
        state = apply_element(state, element)
    return state


def _adjoint(element: Element) -> Element:
    """Element whose action is the inverse of the given one."""
    if isinstance(element, Coupler):
        (a, b), (c, d) = element.matrix
        dagger = ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate()))
        # pbs, hwp, hadamard and mirror are Hermitian, hence their own inverse
        return element if dagger == element.matrix else replace(element, matrix=dagger)
    return BeamSplitter(
        element.out_a,
        element.out_b,
        element.in_a,
        element.in_b,
        element.t.conjugate(),
        -element.r,
        element.name + "^-1",
        element.adjustable,
    )


def state_to_ket(state: OpticsState, n_photons: int) -> Ket:
    """Convert a configuration state on L/R modes to a labeled-basis ket."""
    conv = BasisConvention(n_photons)
    amps: dict[int, complex] = {}
    for config, amp in state.items():
        index = 0
        for mode, _ in config:
            if mode not in ("L", "R"):
                raise InputError(f"mode {mode!r} has no labeled-basis equivalent")
            index = (index << 1) | (0 if mode == "L" else 1)
        for _, pol in config:
            index = (index << 1) | (0 if pol == "H" else 1)
        amps[index] = amps.get(index, 0j) + amp
    return hilbert.make_ket(conv, amps)


def ket_to_state(ket: Ket) -> OpticsState:
    n = ket.convention.n_photons
    state: OpticsState = {}
    for k, amp in ket.amplitudes.items():
        bits = format(k, f"0{2 * n}b")
        config = tuple(
            ("LR"[int(bits[i])], "HV"[int(bits[n + i])]) for i in range(n)
        )
        state[config] = amp
    return state


def run_pre_block(circuit: Circuit) -> Ket:
    """Source through the pre-selection block, as a labeled-basis ket."""
    state = propagate(circuit.source, circuit.pre_elements)
    return state_to_ket(state, circuit.n_photons)


# ---------------------------------------------------------------------------
# runs


@dataclass(frozen=True)
class PatternOutcome:
    probability: float
    state: OpticsState  # renormalized conditional state


@dataclass(frozen=True)
class ExactResult:
    patterns: dict[str, PatternOutcome]
    success_pattern: str

    def probabilities(self) -> dict[str, float]:
        return {p: o.probability for p, o in sorted(self.patterns.items())}

    def probability(self, pattern: str) -> float:
        outcome = self.patterns.get(pattern)
        return outcome.probability if outcome else 0.0

    @property
    def success_probability(self) -> float:
        return self.probability(self.success_pattern)

    def conditional(self, pattern: str) -> OpticsState:
        if pattern not in self.patterns:
            raise InputError(f"no amplitude reached pattern {pattern!r}")
        return dict(self.patterns[pattern].state)


@dataclass(frozen=True)
class ClickRecord:
    """Coincidence-pattern counts from a seeded Monte Carlo run.

    Keys are the same pattern strings run_exact reports; a singleton pattern
    such as "D5" counts the events in which every photon landed on that
    detector and nothing else clicked.
    """

    counts: dict[str, int]
    shots: int
    seed: int


def run_exact(circuit: Circuit) -> ExactResult:
    """Propagate exactly and group the final state by coincidence pattern."""
    state = propagate(circuit.source, circuit.pre_elements)
    state = propagate(state, circuit.post_elements)
    grouped: dict[str, OpticsState] = {}
    for config, amp in state.items():
        labels = set()
        for photon, (mode, pol) in enumerate(config, start=1):
            label = circuit.detectors.get((photon, mode, pol))
            if label is None:
                raise CircuitConfigError(
                    f"photon {photon} port ({mode}, {pol}) holds amplitude {amp} "
                    "but is not bound to any detector"
                )
            labels.add(label)
        pattern = "+".join(sorted(labels))
        grouped.setdefault(pattern, {})[config] = amp
    patterns: dict[str, PatternOutcome] = {}
    for pattern in sorted(grouped):
        block = grouped[pattern]
        prob = sum(abs(a) ** 2 for a in block.values())
        scale = 1 / math.sqrt(prob)
        patterns[pattern] = PatternOutcome(
            probability=prob,
            state={c: a * scale for c, a in sorted(block.items())},
        )
    return ExactResult(patterns, circuit.postselect_on)


def run_monte_carlo(circuit: Circuit, shots: int, seed: int) -> ClickRecord:
    """Sample coincidence patterns; identical (circuit, shots, seed) give identical counts."""
    if shots < 1:
        raise InputError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    import numpy as np

    exact = run_exact(circuit)
    names = sorted(exact.patterns)
    probs = np.array([exact.patterns[p].probability for p in names])
    probs /= probs.sum()
    totals = np.zeros(len(names), dtype=np.int64)
    for block in range((shots + _BLOCK - 1) // _BLOCK):
        rng = np.random.default_rng([seed, block])
        totals += rng.multinomial(min(_BLOCK, shots - block * _BLOCK), probs)
    return ClickRecord(
        counts={name: int(c) for name, c in zip(names, totals)},
        shots=shots,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# post-selection analysis and calibration


def _success_config(circuit: Circuit) -> Config:
    """The unique final configuration in which every photon hits the success detector."""
    per_photon: list[list[tuple[str, str]]] = []
    for photon in range(1, circuit.n_photons + 1):
        options = sorted(
            (mode, pol)
            for (ph, mode, pol), label in circuit.detectors.items()
            if ph == photon and label == circuit.postselect_on
        )
        if not options:
            raise CircuitConfigError(
                f"photon {photon} has no port bound to detector {circuit.postselect_on!r}"
            )
        per_photon.append(options)
    combos = list(product(*per_photon))
    if len(combos) != 1:
        raise CircuitConfigError(
            f"post-selection on {circuit.postselect_on!r} is not a unique configuration "
            f"({len(combos)} candidates); calibration needs a single success port"
        )
    return tuple(combos[0])


def effective_postselection(circuit: Circuit) -> Ket:
    """The post-selection vector the post-block realizes on its L/R inputs.

    Pulls the success configuration backward through the post-block
    (adjoint propagation), then keeps the components on L/R input modes.
    Weak values computed against this vector are exactly those the physical
    conditioning implements.
    """
    vec: OpticsState = {_success_config(circuit): 1.0 + 0j}
    for element in reversed(circuit.post_elements):
        vec = apply_element(vec, _adjoint(element))
    kept = {
        cfg: amp
        for cfg, amp in vec.items()
        if all(mode in ("L", "R") for mode, _ in cfg)
    }
    if not kept:
        raise CircuitConfigError(
            "the post-block's success functional has no support on L/R input modes"
        )
    return state_to_ket(kept, circuit.n_photons)


def _mode_images(element: Element, modes: tuple[str, ...]) -> set[tuple[str, ...]]:
    """Conservative reachability step on mode configurations."""
    if isinstance(element, BeamSplitter):
        if modes in (element.in_a, element.in_b):
            return {element.out_a, element.out_b}
        return {modes}
    i, ((a, _), (b, _)) = element.photon - 1, element.ports
    if modes[i] in (a, b):
        return {modes[:i] + (mode,) + modes[i + 1 :] for mode in (a, b)}
    return {modes}


def _reaches_success(
    start: tuple[str, ...], remaining: Sequence[Element], succ_modes: tuple[str, ...]
) -> bool:
    frontier = {start}
    for element in remaining:
        frontier = set().union(*(_mode_images(element, m) for m in frontier))
    return succ_modes in frontier


@dataclass(frozen=True)
class CalibrationResult:
    circuit: Circuit
    residual: float
    settings: dict[str, tuple[complex, complex]]


def _pol_block(state: OpticsState, modes: tuple[str, ...], n: int) -> list[complex]:
    return [state.get(tuple(zip(modes, pols)), 0j) for pols in product(_POLS, repeat=n)]


def _null_direction(alpha: list[complex], beta: list[complex]) -> tuple[complex, complex] | None:
    """Unit (x0, x1) minimizing |x0 alpha + x1 beta|; None if every direction does."""
    a = sum(abs(v) ** 2 for v in alpha)
    d = sum(abs(v) ** 2 for v in beta)
    b = sum(u.conjugate() * v for u, v in zip(alpha, beta))
    low = (a + d) / 2 - math.hypot((a - d) / 2, abs(b))
    x0, x1 = max((b, low - a), (low - d, b.conjugate()), key=lambda x: math.hypot(abs(x[0]), abs(x[1])))
    size = math.hypot(abs(x0), abs(x1))
    if size == 0.0:  # the Gram matrix is a multiple of the identity
        return None
    peak = x0 if abs(x0) >= abs(x1) else x1
    phase = complex(peak).conjugate() / (abs(peak) * size)
    return x0 * phase, x1 * phase


def calibrate_postselection(circuit: Circuit, target_post: Ket) -> CalibrationResult:
    """Retune the adjustable splitters so the success port realizes the target.

    The success functional after the block is the success-port bra composed
    with the block unitary, so calibration is funneling: propagating the
    normalized target forward, each adjustable splitter must send zero
    amplitude into whichever of its output ports cannot reach the success
    configuration. With alpha and beta its input polarization blocks, that
    (t, r) is the unit x minimizing |x0 alpha + x1 beta|: the low eigenvector
    of the Gram matrix [[a, b], [conj(b), d]], a = |alpha|^2, d = |beta|^2,
    b = <alpha|beta>. Its eigenvalue is low = (a + d)/2 - hypot((a - d)/2, |b|);
    the longer of (b, low - a) and (low - d, conj(b)) is normalized and its
    larger entry turned real and positive. Colinear blocks give an exact
    zero, anything else gets the least-squares best and shows up in the
    residual 1 - |<success|block|target>|. If every direction is optimal
    (zero blocks, or orthogonal blocks of equal norm), t = 1 and r = 0.
    Raises the calibration error, carrying the best residual, if the
    residual exceeds CALIBRATION_THRESHOLD (1e-10).
    """
    if not any(isinstance(e, BeamSplitter) and e.adjustable for e in circuit.post_elements):
        raise InputError("circuit has no adjustable beam splitter to calibrate")
    succ = _success_config(circuit)
    succ_modes = tuple(m for m, _ in succ)
    n = circuit.n_photons
    norm = target_post.norm()
    if norm == 0.0:
        raise ZeroNormError("calibration target is the zero vector")
    state = ket_to_state(hilbert.normalize(target_post))

    elements = list(circuit.post_elements)
    new_elements: list[Element] = []
    settings: dict[str, tuple[complex, complex]] = {}
    for pos, element in enumerate(elements):
        if not (isinstance(element, BeamSplitter) and element.adjustable):
            state = apply_element(state, element)
            new_elements.append(element)
            continue
        remaining = elements[pos + 1 :]
        reach_a = _reaches_success(element.out_a, remaining, succ_modes)
        reach_b = _reaches_success(element.out_b, remaining, succ_modes)
        if reach_a and reach_b:
            raise CircuitConfigError(
                f"both output ports of {element.name!r} can reach the success port; "
                "calibration is ambiguous"
            )
        x = _null_direction(_pol_block(state, element.in_a, n), _pol_block(state, element.in_b, n))
        if x is None:
            t, r = 1.0 + 0j, 0j
        elif reach_b or not reach_a:
            # dump through out_a: zero t*alpha - conj(r)*beta
            t, r = x[0], -x[1].conjugate()
        else:
            # dump through out_b: zero r*alpha + conj(t)*beta
            r, t = x[0], x[1].conjugate()
        tuned = replace(element, t=t, r=r)
        settings[element.name or f"bs@{pos}"] = (t, r)
        state = apply_element(state, tuned)
        new_elements.append(tuned)

    amp = state.get(succ, 0j)
    residual = 1.0 - abs(amp)
    result = CalibrationResult(
        circuit=replace(circuit, post_elements=tuple(new_elements)),
        residual=residual,
        settings=settings,
    )
    if residual > CALIBRATION_THRESHOLD:
        raise CalibrationError(
            f"calibration residual {residual} exceeds threshold {CALIBRATION_THRESHOLD}", residual
        )
    return result


# ---------------------------------------------------------------------------
# circuit file parsing


# the keys each element kind accepts; `bs` also takes the flag `adjustable`
_ELEMENT_KEYS = {
    "pbs": ("photon", "ports"),
    "phase": ("photon", "arm", "shift"),
    **{kind: ("photon", "arm") for kind in _PLATES},
    "bs": ("name", "in_a", "in_b", "out_a", "out_b", "t", "r"),
}


def _split_kv(
    parts: Sequence[str], keys: Sequence[str], line_no: int, known_flags: Sequence[str] = ()
) -> tuple[dict[str, str], set[str]]:
    kv: dict[str, str] = {}
    flags: set[str] = set()
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            if part not in known_flags:
                raise CircuitParseError(f"unknown flag {part!r}", line_no)
            flags.add(part)
        elif key not in keys:
            raise CircuitParseError(f"unknown key {key!r}", line_no)
        elif key in kv:
            raise CircuitParseError(f"duplicate key {key!r}", line_no)
        elif not value:
            raise CircuitParseError(f"empty value for {key!r}", line_no)
        else:
            kv[key] = value
    return kv, flags


def _need(kv: dict[str, str], key: str, line_no: int) -> str:
    if key not in kv:
        raise CircuitParseError(f"missing {key}=...", line_no)
    return kv[key]


def _photon(kv: dict[str, str], n: int, what: str, line_no: int) -> int:
    try:
        photon = int(_need(kv, "photon", line_no))
    except ValueError:
        raise CircuitParseError("photon index must be an integer", line_no) from None
    if not 1 <= photon <= n:
        raise CircuitParseError(f"{what} photon {photon} is not in 1..{n}", line_no)
    return photon


def _modes_tuple(text: str, n: int, line_no: int) -> tuple[str, ...]:
    modes = tuple(m.strip() for m in text.split(","))
    if len(modes) != n or not all(modes):
        raise CircuitParseError(f"expected {n} comma-separated modes, got {text!r}", line_no)
    return modes


def parse_circuit(text: str) -> Circuit:
    n_photons: int | None = None
    source: OpticsState | None = None
    pre: list[Element] = []
    post: list[Element] = []
    seen_marker = False
    splitter_names: set[str] = set()
    detectors: dict[tuple[int, str, str], str] = {}
    postselect_on: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        word = parts[0]
        if word == "photons":
            if n_photons is not None:
                raise CircuitParseError("duplicate photons line", line_no)
            if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) < 1:
                raise CircuitParseError("photons needs one positive integer", line_no)
            n_photons = int(parts[1])
            continue
        if n_photons is None:
            raise CircuitParseError("photons must be the first directive", line_no)

        if word == "source":
            if source is not None:
                raise CircuitParseError("duplicate source line", line_no)
            if len(parts) < 2:
                raise CircuitParseError("source needs a kind (spdc or ket)", line_no)
            if parts[1] not in ("spdc", "ket"):
                raise CircuitParseError(f"unknown source kind {parts[1]!r}", line_no)
            kv, _ = _split_kv(parts[2:], ("modes",) if parts[1] == "spdc" else ("path", "pol"), line_no)
            if parts[1] == "spdc":
                if n_photons != 2:
                    raise CircuitParseError("spdc source requires photons 2", line_no)
                m1, m2 = _modes_tuple(_need(kv, "modes", line_no), 2, line_no)
                source = {((m1, "H"), (m2, "V")): _INV_SQRT2 + 0j, ((m1, "V"), (m2, "H")): _INV_SQRT2 + 0j}
            else:
                paths = _modes_tuple(_need(kv, "path", line_no), n_photons, line_no)
                pols = _modes_tuple(_need(kv, "pol", line_no), n_photons, line_no)
                if not all(p in _POLS for p in pols):
                    raise CircuitParseError("pol entries must be H or V", line_no)
                source = {tuple(zip(paths, pols)): 1.0 + 0j}
        elif word == "element":
            if len(parts) < 2:
                raise CircuitParseError("element needs a kind", line_no)
            kind = parts[1]
            if kind not in _ELEMENT_KEYS:
                raise CircuitParseError(f"unknown element kind {kind!r}", line_no)
            flags_known = ("adjustable",) if kind == "bs" else ()
            kv, flags = _split_kv(parts[2:], _ELEMENT_KEYS[kind], line_no, flags_known)
            try:
                if kind == "pbs":
                    a, b = _modes_tuple(_need(kv, "ports", line_no), 2, line_no)
                    photon = _photon(kv, n_photons, "element", line_no)
                    el: Element = Coupler(photon, ((a, "V"), (b, "V")), _SWAP)
                elif kind in _PLATES or kind == "phase":
                    photon, arm = _photon(kv, n_photons, "element", line_no), _need(kv, "arm", line_no)
                    if kind == "phase":
                        shift = parse_real(_need(kv, "shift", line_no))
                        e = complex(math.cos(shift), math.sin(shift))
                        matrix = ((e, 0j), (0j, e))
                    else:
                        matrix = _PLATES[kind]
                    el = Coupler(photon, ((arm, "H"), (arm, "V")), matrix)
                else:
                    in_a = _modes_tuple(_need(kv, "in_a", line_no), n_photons, line_no)
                    in_b = _modes_tuple(_need(kv, "in_b", line_no), n_photons, line_no)
                    out_a = _modes_tuple(kv["out_a"], n_photons, line_no) if "out_a" in kv else in_a
                    out_b = _modes_tuple(kv["out_b"], n_photons, line_no) if "out_b" in kv else in_b
                    el = BeamSplitter(
                        in_a,
                        in_b,
                        out_a,
                        out_b,
                        parse_complex(_need(kv, "t", line_no)),
                        parse_complex(_need(kv, "r", line_no)),
                        kv.get("name", ""),
                        "adjustable" in flags,
                    )
            except InputError as exc:
                raise CircuitParseError(str(exc), line_no) from None
            if isinstance(el, BeamSplitter) and el.name:
                if el.name in splitter_names:
                    raise CircuitParseError(f"duplicate beam splitter name {el.name!r}", line_no)
                splitter_names.add(el.name)
            (post if seen_marker else pre).append(el)
        elif word == "postselection":
            if len(parts) != 1:
                raise CircuitParseError("postselection takes no arguments", line_no)
            if seen_marker:
                raise CircuitParseError("duplicate postselection marker", line_no)
            seen_marker = True
        elif word == "detector":
            if len(parts) < 2:
                raise CircuitParseError("detector needs a label", line_no)
            if "+" in parts[1]:
                raise CircuitParseError(f"detector label {parts[1]!r} {_PLUS_LABEL}", line_no)
            kv, _ = _split_kv(parts[2:], ("photon", "mode", "pol"), line_no)
            photon = _photon(kv, n_photons, "detector", line_no)
            mode = _need(kv, "mode", line_no)
            pol = _need(kv, "pol", line_no)
            if pol not in _POLS:
                raise CircuitParseError("pol must be H or V", line_no)
            key = (photon, mode, pol)
            if key in detectors:
                raise CircuitParseError(
                    f"port photon={photon} mode={mode} pol={pol} already bound", line_no
                )
            detectors[key] = parts[1]
        elif word == "postselect-on":
            if len(parts) != 2:
                raise CircuitParseError("postselect-on needs one detector label", line_no)
            if postselect_on is not None:
                raise CircuitParseError("duplicate postselect-on line", line_no)
            postselect_on = parts[1]
        else:
            raise CircuitParseError(f"unknown directive {word!r}", line_no)

    if n_photons is None:
        raise CircuitParseError("missing photons line", 1)
    if source is None:
        raise CircuitParseError("missing source line", 1)
    if postselect_on is None:
        raise CircuitParseError("missing postselect-on line", 1)
    if postselect_on not in detectors.values():
        raise CircuitParseError(
            f"postselect-on names {postselect_on!r} but no detector line binds it", 1
        )
    if not seen_marker:
        post, pre = pre, post  # no marker: everything is post-selection side
    return Circuit(n_photons, source, tuple(pre), tuple(post), detectors, postselect_on)


def parse_circuit_file(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def builtin_circuit_path() -> str:
    """Filesystem path of the packaged two-photon interferometer description."""
    return str(resources.files("cheshire").joinpath("data/two_cat_device.circuit"))


def two_cat_device() -> Circuit:
    return parse_circuit_file(builtin_circuit_path())
