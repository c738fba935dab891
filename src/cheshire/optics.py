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
pattern (the sorted set of labels the photons land on, joined with '+'), and
the `postselect-on` label names the success pattern in which every photon
lands on that detector. A directive refuses keys and flags it does not know.

The circuit rules, each checked in one place: `Circuit` checks them all on
construction, and the parser checks each line's as it reads it.
* An element or detector addresses a photon in 1..n.
* A port is a nonempty mode with pol H or V: each photon's in the source and
  each detector's; a coupler has two distinct ports.
* The source and every splitter port configuration hold one mode per photon.
* A detector label holds no '+', which joins the labels of a pattern.
* Splitter names, where given, are distinct: calibration reports by name.
* The source is normalized, and `postselect-on` names a bound detector.

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
from itertools import product, zip_longest
from typing import Iterable, Sequence

from . import hilbert
from .errors import (
    CalibrationError,
    CircuitConfigError,
    CircuitParseError,
    InputError,
    ZeroNormError,
)
from .expr import Directives, parse_complex, parse_real
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
        if len(set(self.ports)) != 2 or not all(map(_is_port, self.ports)):
            raise InputError(f"coupler needs two distinct ports (mode, H/V), got {self.ports}")
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


def _is_port(port: tuple[str, str]) -> bool:
    """A (mode, pol) pair: a nonempty mode and pol H or V."""
    return len(port) == 2 and bool(port[0]) and port[1] in _POLS


def _check_photon(photon: int, n: int, what: str) -> None:
    if not 1 <= photon <= n:
        raise CircuitConfigError(f"{what} photon {photon} is not in 1..{n}")


def _check_source(source: OpticsState, n: int) -> None:
    for config in source:
        if len(config) != n or not all(map(_is_port, config)):
            raise CircuitConfigError(f"source configuration {config} needs one (mode, H/V) per photon")
    if abs(sum(abs(a) ** 2 for a in source.values()) - 1.0) > 1e-12:
        raise CircuitConfigError(f"source state {source} is not normalized")


def _check_element(el: Element, n: int, names: set[str]) -> None:
    """`names` holds the splitter names met so far; a named splitter adds its own."""
    if isinstance(el, Coupler):
        _check_photon(el.photon, n, "element")
        return
    for cfg in (el.in_a, el.in_b, el.out_a, el.out_b):
        if len(cfg) != n or not all(cfg):
            raise CircuitConfigError(
                f"beam splitter {el.name!r} port configuration {cfg} does not list one mode per photon"
            )
    if el.name in names:
        raise CircuitConfigError(f"duplicate beam splitter name {el.name!r}")
    if el.name:
        names.add(el.name)


def _check_detector(port: tuple[int, str, str], label: str, n: int) -> None:
    _check_photon(port[0], n, "detector")
    if not _is_port(port[1:]):
        raise CircuitConfigError(f"detector port {port} needs a mode and pol H or V")
    if "+" in label:
        raise CircuitConfigError(f"detector label {label!r} {_PLUS_LABEL}")


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
        """Every circuit rule of the module docstring, over the whole circuit."""
        n = self.n_photons
        _check_source(self.source, n)
        names: set[str] = set()
        for el in self.pre_elements + self.post_elements:
            _check_element(el, n, names)
        for port, label in self.detectors.items():
            _check_detector(port, label, n)
        if self.postselect_on not in self.detectors.values():
            raise CircuitConfigError(f"postselect-on names {self.postselect_on!r} but no detector binds it")


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


def _split_kv(parts: list[str], keys: Sequence[str], known_flags=()) -> dict[str, str]:
    """key=value parts by key; a known flag maps to ""."""
    kv: dict[str, str] = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            if part not in known_flags:
                raise InputError(f"unknown flag {part!r}")
            kv[part] = ""
        elif key not in keys:
            raise InputError(f"unknown key {key!r}")
        elif key in kv:
            raise InputError(f"duplicate key {key!r}")
        elif not value:
            raise InputError(f"empty value for {key!r}")
        else:
            kv[key] = value
    return kv


def _need(kv: dict[str, str], key: str) -> str:
    if key not in kv:
        raise InputError(f"missing {key}=...")
    return kv[key]


def _photon(kv: dict[str, str]) -> int:
    try:
        return int(_need(kv, "photon"))
    except ValueError:
        raise InputError("photon index must be an integer") from None


def _ports(modes: str, pols: Sequence[str]) -> Config:
    """Comma-separated modes paired with pols; a missing entry reads "", which `_is_port` refuses."""
    return tuple(zip_longest(modes.split(","), pols, fillvalue=""))


def _element(kind: str, kv: dict[str, str]) -> Element:
    if kind == "bs":
        in_a, in_b = _need(kv, "in_a"), _need(kv, "in_b")  # outputs default to the inputs
        ports = (tuple(m.split(",")) for m in (in_a, in_b, kv.get("out_a", in_a), kv.get("out_b", in_b)))
        t, r = parse_complex(_need(kv, "t")), parse_complex(_need(kv, "r"))
        return BeamSplitter(*ports, t, r, kv.get("name", ""), "adjustable" in kv)
    if kind == "pbs":
        return Coupler(_photon(kv), tuple((mode, "V") for mode in _need(kv, "ports").split(",")), _SWAP)
    photon, arm = _photon(kv), _need(kv, "arm")
    if kind == "phase":
        shift = parse_real(_need(kv, "shift"))
        e = complex(math.cos(shift), math.sin(shift))
        return Coupler(photon, ((arm, "H"), (arm, "V")), ((e, 0j), (0j, e)))
    return Coupler(photon, ((arm, "H"), (arm, "V")), _PLATES[kind])


def parse_circuit(text: str) -> Circuit:
    lines = Directives(text, CircuitParseError)
    source: OpticsState | None = None
    pre: list[Element] = []
    post: list[Element] = []
    seen_marker = False
    splitter_names: set[str] = set()
    detectors: dict[tuple[int, str, str], str] = {}
    postselect_on: str | None = None

    for line_no, (word, *args) in lines:
        if lines.convention is None:
            raise CircuitParseError("photons must be the first directive", line_no)
        n = lines.convention.n_photons
        try:
            if word == "source":
                if source is not None:
                    raise InputError("duplicate source line")
                kind = args.pop(0) if args else None
                if kind not in ("spdc", "ket"):
                    raise InputError(f"source kind must be spdc or ket, got {kind!r}")
                if kind == "spdc":
                    modes = _need(_split_kv(args, ("modes",)), "modes")
                    source = {_ports(modes, pols): _INV_SQRT2 + 0j for pols in (("H", "V"), ("V", "H"))}
                else:
                    kv = _split_kv(args, ("path", "pol"))
                    source = {_ports(_need(kv, "path"), _need(kv, "pol").split(",")): 1.0 + 0j}
                _check_source(source, n)
            elif word == "element":
                kind = args.pop(0) if args else None
                if kind not in _ELEMENT_KEYS:
                    raise InputError(f"element kind must be one of {', '.join(_ELEMENT_KEYS)}, got {kind!r}")
                flags_known = ("adjustable",) if kind == "bs" else ()
                el = _element(kind, _split_kv(args, _ELEMENT_KEYS[kind], flags_known))
                _check_element(el, n, splitter_names)
                (post if seen_marker else pre).append(el)
            elif word == "postselection":
                if args:
                    raise InputError("postselection takes no arguments")
                if seen_marker:
                    raise InputError("duplicate postselection marker")
                seen_marker = True
            elif word == "detector":
                if not args:
                    raise InputError("detector needs a label")
                kv = _split_kv(args[1:], ("photon", "mode", "pol"))
                port = (_photon(kv), _need(kv, "mode"), _need(kv, "pol"))
                _check_detector(port, args[0], n)
                if port in detectors:
                    raise InputError(f"port photon={port[0]} mode={port[1]} pol={port[2]} already bound")
                detectors[port] = args[0]
            elif word == "postselect-on":
                if len(args) != 1:
                    raise InputError("postselect-on needs one detector label")
                if postselect_on is not None:
                    raise InputError("duplicate postselect-on line")
                postselect_on = args[0]
            else:
                raise InputError(f"unknown directive {word!r}")
        except (InputError, CircuitConfigError) as exc:
            raise CircuitParseError(str(exc), line_no) from None

    if lines.convention is None:
        raise CircuitParseError("missing photons line", 1)
    if source is None:
        raise CircuitParseError("missing source line", 1)
    if postselect_on is None:
        raise CircuitParseError("missing postselect-on line", 1)
    if not seen_marker:
        post, pre = pre, post  # no marker: everything is post-selection side
    try:
        return Circuit(lines.convention.n_photons, source, tuple(pre), tuple(post), detectors, postselect_on)
    except CircuitConfigError as exc:  # every per-line rule held: postselect-on binds no detector
        raise CircuitParseError(str(exc), 1) from None


def parse_circuit_file(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def builtin_circuit_path() -> str:
    """Filesystem path of the packaged two-photon interferometer description."""
    return str(resources.files("cheshire").joinpath("data/two_cat_device.circuit"))


def two_cat_device() -> Circuit:
    return parse_circuit_file(builtin_circuit_path())
