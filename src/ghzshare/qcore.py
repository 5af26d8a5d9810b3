"""Dense six-qubit statevector engine.

Prepares the four shared GHZ product states, applies the four single-qubit
encoding gates, and performs projective Bell-basis measurement on qubit
pairs.  Qubits carry the protocol's 1-based labels 1..6; in the flat
64-amplitude vector, qubit 1 is the most significant bit of the basis
index (basis string q1q2q3q4q5q6).

Every amplitude reachable here is a signed power of 1/sqrt(2), so the
absolute tolerance 1e-12 used throughout is loose.

Gates and Bell measurements read and write amplitudes through small
read-only index tables, cached per (gate, qubit) and per pair on first use.
"""

from __future__ import annotations

import functools
import math
import operator
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
    """The qubit as an int, fit for a cache key.

    A bool is rejected although True == 1; a float such as 1.0 raises TypeError.
    """
    if isinstance(q, bool) or q not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"qubit index must be in 1..6, got {q!r}")
    return operator.index(q)


def check_pair(pair: BellPair) -> BellPair:
    """The pair as a tuple of two distinct checked qubits."""
    first, second = pair
    first, second = check_qubit(first), check_qubit(second)
    if first == second:
        raise ValueError(f"measurement pair must use two distinct qubits, got {pair!r}")
    return first, second


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


@functools.cache
def _prepared(label: StateLabel) -> Statevector:
    state = np.zeros(DIM)
    for first in label.half_support:
        for second in label.half_support:
            bits = tuple(int(c) for c in first + second)
            state[bits_to_index(bits)] = 0.5
    state.flags.writeable = False
    return state


def prepare_state(label: StateLabel) -> Statevector:
    """Tensor product of the label's two GHZ halves: 4 amplitudes of +1/2."""
    return _prepared(label).copy()


@functools.cache
def _gate_table(gate: PauliGate, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The gate at qubit q as a signed permutation: out[i] = signs[i] * state[perm[i]].

    Each row of a Pauli matrix has one non-zero entry; row b's entry sits in
    column cols[b], so output amplitude i reads the input with qubit q set to
    cols[b], where b is qubit q's bit of i.
    """
    matrix = gate.matrix
    cols = np.abs(matrix).argmax(axis=1)
    shift = N_QUBITS - q
    index = np.arange(DIM)
    bit = (index >> shift) & 1
    perm = index ^ ((bit ^ cols[bit]) << shift)
    signs = matrix[bit, cols[bit]]
    perm.flags.writeable = False
    signs.flags.writeable = False
    return perm, signs


def apply_gate(state: Statevector, gate: PauliGate, q: int) -> Statevector:
    """Apply a single-qubit gate at 1-based qubit position q."""
    perm, signs = _gate_table(gate, check_qubit(q))
    # + 0.0 turns the -0.0 that a sign flip leaves on a zero amplitude into 0.0
    return np.asarray(state).reshape(DIM)[perm] * signs + 0.0


# Each outcome's two kets on the pair and their coefficients sign/sqrt2, in
# _BELL_KET_SIGNS order: index [j, k] is ket j of outcome BELL_OUTCOMES[k].
_BELL_KETS = tuple(zip(*(tuple(_BELL_KET_SIGNS[o].items()) for o in BELL_OUTCOMES)))
_BELL_COEF = np.array([[[sign * _SQRT1_2] for _, sign in kets] for kets in _BELL_KETS])
_BELL_COEF.flags.writeable = False
_OUTCOME_ROW = {outcome: k for k, outcome in enumerate(BELL_OUTCOMES)}


@functools.cache
def _bell_tables(pair: BellPair) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (2, 4, 16) of a pair's Bell gather and of its post-state scatter.

    gather[j, k, r] is the basis index with ket j of outcome k on the pair and
    pattern r on the other four qubits (ascending, first most significant).
    scatter adds 64 * k, indexing one (4, 64) block of post-states.
    """
    first, second = pair
    rest = [q for q in range(1, N_QUBITS + 1) if q not in pair]
    base = np.array(
        [
            sum(((r >> (3 - i)) & 1) << (N_QUBITS - q) for i, q in enumerate(rest))
            for r in range(16)
        ]
    )
    gather = np.array(
        [
            [base | (k1 << (N_QUBITS - first)) | (k2 << (N_QUBITS - second)) for (k1, k2), _ in ks]
            for ks in _BELL_KETS
        ]
    )
    scatter = gather + DIM * np.arange(len(BELL_OUTCOMES))[:, None]
    gather.flags.writeable = False
    scatter.flags.writeable = False
    return gather, scatter


def partial_inner(state: Statevector, pair: BellPair, outcome: BellOutcome) -> np.ndarray:
    """Unnormalized inner product <outcome|state on the pair, flattened.

    The result indexes the four remaining qubits in ascending order.
    """
    gather = _bell_tables(check_pair(pair))[0]
    k = _OUTCOME_ROW[outcome]
    terms = np.asarray(state).reshape(DIM)[gather[:, k]] * _BELL_COEF[:, k]
    return (terms[0] + 0.0) + terms[1]


def bell_probabilities(
    state: Statevector, pair: BellPair
) -> dict[BellOutcome, tuple[float, Statevector | None]]:
    """Born probabilities and normalized post-states for a Bell measurement.

    Outcomes with probability <= 1e-12 are reported with probability 0.0 and
    no post-state, so impossible branches cannot be sampled downstream.
    """
    gather, scatter = _bell_tables(check_pair(pair))
    # ket j of outcome k times its coefficient, summed in ket order: <outcome| on the pair
    terms = np.asarray(state).reshape(DIM)[gather] * _BELL_COEF
    # start from 0.0, as a sum into a zero array does, so zero signs match too
    rest = (terms[0] + 0.0) + terms[1]
    probs = np.add.reduce(rest * rest, axis=1)
    # rows at or below ATOL are dropped below; the floor only keeps their division finite
    unit = rest / np.sqrt(np.maximum(probs, ATOL))[:, None]
    posts = np.zeros((len(BELL_OUTCOMES), DIM), dtype=unit.dtype)
    posts.reshape(-1)[scatter] = unit * _BELL_COEF
    return {
        outcome: (prob, posts[k]) if prob > ATOL else (0.0, None)
        for k, (outcome, prob) in enumerate(zip(BELL_OUTCOMES, probs.tolist()))
    }


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
