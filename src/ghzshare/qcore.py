"""Dense six-qubit statevector engine.

Prepares the four shared GHZ product states, applies the four single-qubit
encoding gates, and performs projective Bell-basis measurement on qubit
pairs.  Qubits carry the protocol's 1-based labels 1..6; in the flat
64-amplitude vector, qubit 1 is the most significant bit of the basis
index (basis string q1q2q3q4q5q6).

Every amplitude reachable here is a signed power of 1/sqrt(2), so the
absolute tolerance 1e-12 used throughout is loose.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

N_QUBITS = 6
DIM = 2**N_QUBITS
ATOL = 1e-12

# A statevector is a numpy array of shape (64,), unit norm.
Statevector = np.ndarray
BellPair = tuple[int, int]

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def check_qubit(q: int) -> int:
    if q not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"qubit index must be in 1..6, got {q!r}")
    return q


def check_pair(pair: BellPair) -> BellPair:
    first, second = pair
    check_qubit(first)
    check_qubit(second)
    if first == second:
        raise ValueError(f"measurement pair must use two distinct qubits, got {pair!r}")
    return pair


class PauliGate(Enum):
    """The four encoding gates.

    All four matrices are real: I is the identity, X the bit flip,
    Z the phase flip, and iY the product of both (|0> -> -|1>, |1> -> |0>).
    """

    I = "I"
    X = "X"
    IY = "iY"
    Z = "Z"

    @property
    def matrix(self) -> np.ndarray:
        return _GATE_MATRICES[self]


_GATE_MATRICES = {
    PauliGate.I: np.array([[1.0, 0.0], [0.0, 1.0]]),
    PauliGate.X: np.array([[0.0, 1.0], [1.0, 0.0]]),
    PauliGate.IY: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    PauliGate.Z: np.array([[1.0, 0.0], [0.0, -1.0]]),
}

GATES = (PauliGate.I, PauliGate.X, PauliGate.IY, PauliGate.Z)


class StateLabel(Enum):
    """Label of the dealer's initial GHZ product state."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"

    @property
    def half_support(self) -> tuple[str, str]:
        """The two 3-bit strings of one GHZ half (both halves are identical)."""
        return _HALF_SUPPORT[self]


_HALF_SUPPORT = {
    StateLabel.A: ("000", "111"),
    StateLabel.B: ("001", "110"),
    StateLabel.C: ("011", "100"),
    StateLabel.D: ("101", "010"),
}

LABELS = (StateLabel.A, StateLabel.B, StateLabel.C, StateLabel.D)


class BellOutcome(Enum):
    """One of the four Bell-basis measurement outcomes on a qubit pair.

    Ket conventions, with the pair's first listed qubit leftmost:
    a+ = (|00>+|11>)/sqrt2, a- = (|00>-|11>)/sqrt2,
    b+ = (|01>+|10>)/sqrt2, b- = (|01>-|10>)/sqrt2.
    """

    A_PLUS = "a+"
    A_MINUS = "a-"
    B_PLUS = "b+"
    B_MINUS = "b-"

    @property
    def ascii(self) -> str:
        return self.value

    @property
    def pretty(self) -> str:
        return {"a": "α", "b": "β"}[self.value[0]] + {
            "+": "⁺",
            "-": "⁻",
        }[self.value[1]]


_BELL_KET_SIGNS = {
    BellOutcome.A_PLUS: {(0, 0): 1, (1, 1): 1},
    BellOutcome.A_MINUS: {(0, 0): 1, (1, 1): -1},
    BellOutcome.B_PLUS: {(0, 1): 1, (1, 0): 1},
    BellOutcome.B_MINUS: {(0, 1): 1, (1, 0): -1},
}

BELL_OUTCOMES = (
    BellOutcome.A_PLUS,
    BellOutcome.A_MINUS,
    BellOutcome.B_PLUS,
    BellOutcome.B_MINUS,
)


def outcome_from_ascii(text: str) -> BellOutcome:
    for o in BELL_OUTCOMES:
        if o.value == text:
            return o
    raise ValueError(f"unknown Bell outcome {text!r}")


def bits_to_index(bits: tuple[int, ...]) -> int:
    index = 0
    for b in bits:
        index = (index << 1) | b
    return index


def prepare_state(label: StateLabel) -> Statevector:
    """Tensor product of the label's two GHZ halves: 4 amplitudes of +1/2."""
    state = np.zeros(DIM)
    for first in label.half_support:
        for second in label.half_support:
            bits = tuple(int(c) for c in first + second)
            state[bits_to_index(bits)] = 0.5
    return state


def apply_gate(state: Statevector, gate: PauliGate, q: int) -> Statevector:
    """Apply a single-qubit gate at 1-based qubit position q."""
    check_qubit(q)
    psi = np.asarray(state).reshape((2,) * N_QUBITS)
    out = np.tensordot(gate.matrix, psi, axes=([1], [q - 1]))
    return np.moveaxis(out, 0, q - 1).reshape(DIM)


def _projected_rest(state: Statevector, pair: BellPair, outcome: BellOutcome) -> np.ndarray:
    """<outcome| applied to the pair, leaving the other four qubits.

    The returned array has shape (2,2,2,2) over the remaining qubits in
    ascending order and is unnormalized.
    """
    check_pair(pair)
    psi = np.asarray(state).reshape((2,) * N_QUBITS)
    ax1, ax2 = pair[0] - 1, pair[1] - 1
    rest = np.zeros((2,) * (N_QUBITS - 2))
    for (k1, k2), sign in _BELL_KET_SIGNS[outcome].items():
        idx: list[object] = [slice(None)] * N_QUBITS
        idx[ax1], idx[ax2] = k1, k2
        rest = rest + sign * _SQRT1_2 * psi[tuple(idx)]
    return rest


def partial_inner(state: Statevector, pair: BellPair, outcome: BellOutcome) -> np.ndarray:
    """Unnormalized inner product <outcome|state on the pair, flattened.

    The result indexes the four remaining qubits in ascending order.
    """
    return _projected_rest(state, pair, outcome).reshape(-1)


def bell_probabilities(
    state: Statevector, pair: BellPair
) -> dict[BellOutcome, tuple[float, Statevector | None]]:
    """Born probabilities and normalized post-states for a Bell measurement.

    Outcomes with probability <= 1e-12 are reported with probability 0.0 and
    no post-state, so impossible branches cannot be sampled downstream.
    """
    results: dict[BellOutcome, tuple[float, Statevector | None]] = {}
    ax1, ax2 = pair[0] - 1, pair[1] - 1
    for outcome in BELL_OUTCOMES:
        rest = _projected_rest(state, pair, outcome)
        prob = float(np.sum(rest * rest))
        if prob <= ATOL:
            results[outcome] = (0.0, None)
            continue
        rest = rest / math.sqrt(prob)
        post = np.zeros((2,) * N_QUBITS)
        for (k1, k2), sign in _BELL_KET_SIGNS[outcome].items():
            idx: list[object] = [slice(None)] * N_QUBITS
            idx[ax1], idx[ax2] = k1, k2
            post[tuple(idx)] = sign * _SQRT1_2 * rest
        results[outcome] = (prob, post.reshape(DIM))
    return results


def measure_bell(state: Statevector, pair: BellPair, rng) -> tuple[BellOutcome, Statevector]:
    """Sample one Bell outcome with Born probabilities; deterministic per rng state."""
    probs = bell_probabilities(state, pair)
    r = rng.random()
    acc = 0.0
    chosen = None
    for outcome in BELL_OUTCOMES:
        p, post = probs[outcome]
        acc += p
        if r < acc and post is not None:
            chosen = (outcome, post)
            break
    if chosen is None:
        # r landed in the floating-point slack at the top of the cumulative sum
        for outcome in reversed(BELL_OUTCOMES):
            p, post = probs[outcome]
            if post is not None:
                chosen = (outcome, post)
                break
    assert chosen is not None
    return chosen


def norm(state: Statevector) -> float:
    return float(np.linalg.norm(np.asarray(state).reshape(-1)))


def global_phase_equal(a: np.ndarray, b: np.ndarray, tol: float = ATOL) -> bool:
    """True iff the unit vectors a and b agree up to a global phase."""
    va = np.asarray(a).reshape(-1)
    vb = np.asarray(b).reshape(-1)
    if va.shape != vb.shape:
        return False
    return bool(abs(np.vdot(va, vb)) >= 1.0 - tol)
