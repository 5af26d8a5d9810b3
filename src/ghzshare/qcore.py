"""Exact dense six-qubit engine.

Prepares the four shared GHZ product states, applies the four single-qubit
encoding gates, and performs projective Bell-basis measurement on qubit
pairs.  Qubits carry the protocol's 1-based labels 1..6; in a basis index,
qubit 1 is the most significant bit (basis string q1q2q3q4q5q6).

Every amplitude reachable here is an integer times a power of 1/sqrt(2): the
states start as GHZ products, the gates are real signed permutations and
the Bell kets have +/-1/sqrt2 entries.  So a state is held exactly, as its
nonzero integer amplitudes and one shared sqrt(2) exponent, and every Born
probability is a dyadic fraction.  A result with no such exact form raises
NotDyadic; nothing is rounded.

Gates and Bell measurements visit only the nonzero amplitudes.  A gate moves
each with a shift and a mask on ``GATE_IMAGES``, as the symbolic engine does;
a Bell measurement reads small index tables cached per pair on first use.
"""

from __future__ import annotations

import functools
import math
import operator
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    # loaded by the first probability asked for: with decimal and numbers it
    # costs a cold start milliseconds that a protocol run never needs
    from fractions import Fraction

N_QUBITS = 6
DIM = 2**N_QUBITS

BellPair = tuple[int, int]


class NotDyadic(ValueError):
    """A vector that cannot be normalized to integers over one power of sqrt(2)."""


class DenseState(NamedTuple):
    """An exact real vector over ``n_qubits`` qubits.

    ``amplitudes`` holds the nonzero entries as (basis index, int) pairs in
    ascending index order; entry i of the vector is its int times
    2**(-exponent/2), the ``SymbolicState.norm_exponent`` convention.  The ints
    are not all even, so each vector has one form and equality is exact.
    """

    amplitudes: tuple[tuple[int, int], ...]
    exponent: int
    n_qubits: int = N_QUBITS


def _norm_exponent(squares: int, scale: int) -> int:
    """The k with squares == scale**2 * 2**k, for a vector whose ints have gcd scale."""
    reduced = squares // (scale * scale)
    if reduced & (reduced - 1):
        raise NotDyadic(f"squared norm {reduced} of the reduced ints is not a power of two")
    return reduced.bit_length() - 1


def normalized(vec: DenseState) -> DenseState:
    """The unit vector along vec; NotDyadic if it has no exact form."""
    if not vec.amplitudes:
        raise ValueError("zero vector has no direction")
    scale = 0
    squares = 0
    for _, amp in vec.amplitudes:
        scale = math.gcd(scale, amp)
        squares += amp * amp
    unit = tuple([(index, amp // scale) for index, amp in vec.amplitudes])
    return DenseState(unit, _norm_exponent(squares, scale), vec.n_qubits)


def _check_width(state: DenseState) -> None:
    try:
        width = state.n_qubits
    except AttributeError:  # no state
        raise ValueError(f"state must be a DenseState, got {type(state).__name__}") from None
    if width != N_QUBITS:
        raise ValueError(f"expected a {N_QUBITS}-qubit state, got {width} qubits")


def check_qubit(q: int) -> int:
    """The qubit as an int, fit for a cache key.

    A bool is rejected although True == 1; a float such as 1.0 raises TypeError.
    """
    if isinstance(q, bool) or q not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"qubit index must be in 1..6, got {q!r}")
    return operator.index(q)


def check_pair(pair: BellPair) -> BellPair:
    """The pair as a tuple of two distinct checked qubits."""
    try:
        first, second = pair
    except (TypeError, ValueError):  # not a sequence, or not of two
        raise ValueError(f"measurement pair must be two qubits, got {pair!r}") from None
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

    # members compare by identity, so they may hash by it, in C
    __hash__ = object.__hash__


# Per gate, the images of |0> and |1> as (basis bit, sign): each gate is a
# signed permutation of the two basis states.  The dense and the symbolic
# engine both read this one table.
GATE_IMAGES = {
    PauliGate.I: ((0, 1), (1, 1)),
    PauliGate.X: ((1, 1), (0, 1)),
    PauliGate.IY: ((1, -1), (0, 1)),
    PauliGate.Z: ((0, 1), (1, -1)),
}

GATES = (PauliGate.I, PauliGate.X, PauliGate.IY, PauliGate.Z)


class StateLabel(Enum):
    """Label of the dealer's initial GHZ product state."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"

    __hash__ = object.__hash__

    @property
    def half_support(self) -> tuple[int, int]:
        """The two 3-bit patterns of one GHZ half (both halves alike), first qubit the top bit."""
        return _HALF_SUPPORT[self]


_HALF_SUPPORT = {
    StateLabel.A: (0b000, 0b111),
    StateLabel.B: (0b001, 0b110),
    StateLabel.C: (0b011, 0b100),
    StateLabel.D: (0b101, 0b010),
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

    __hash__ = object.__hash__

    @property
    def ascii(self) -> str:
        # the member's attribute: Enum.value is a Python-level property
        return self._value_


BELL_KET_SIGNS = {
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


_FROM_ASCII = {o.ascii: o for o in BELL_OUTCOMES}


def outcome_from_ascii(text: str) -> BellOutcome:
    """The outcome written as text (a+, a-, b+ or b-); anything else raises ValueError."""
    try:
        return _FROM_ASCII[text]
    except (KeyError, TypeError):  # unknown text, or unhashable
        raise ValueError(f"unknown Bell outcome {text!r}") from None


def prepare_state(label: StateLabel) -> DenseState:
    """Tensor product of the label's two GHZ halves: 4 amplitudes of +1/2."""
    try:
        return _prepare_state(label)
    except (AttributeError, TypeError):  # not a StateLabel, or unhashable
        raise ValueError(f"state label must be a StateLabel, got {label!r}") from None


@functools.cache
def _prepare_state(label: StateLabel) -> DenseState:
    support = label.half_support
    indices = sorted(first << 3 | second for first in support for second in support)
    return DenseState(tuple((i, 1) for i in indices), 2)


def apply_gate(state: DenseState, gate: PauliGate, q: int) -> DenseState:
    """Apply a single-qubit gate at 1-based qubit position q."""
    q = check_qubit(q)
    try:
        images = GATE_IMAGES[gate]
    except (KeyError, TypeError):  # not a PauliGate, or unhashable
        raise ValueError(f"gate must be a PauliGate, got {gate!r}") from None
    _check_width(state)
    shift = N_QUBITS - q
    mask = ~(1 << shift)
    moved = []
    for index, amp in state.amplitudes:
        image, sign = images[index >> shift & 1]
        moved.append((index & mask | image << shift, sign * amp))
    moved.sort()
    return DenseState(tuple(moved), state.exponent)


@functools.cache
def _bell_tables(pair: BellPair) -> tuple[tuple, tuple, tuple]:
    """A pair's Bell gather table and its two post-state placement tables.

    gather[i] is (r, k1, sign1, k2, sign2): basis index i has pattern r on the
    other four qubits (ascending, first most significant), and its pair bits
    form a ket of outcomes k1 and k2, with those signs.  spread[r] is the
    basis index of pattern r with the pair's bits clear, and place[k] holds
    outcome k's two kets as (their bits in a basis index, sign).
    """
    first, second = pair
    rest = [q for q in range(1, N_QUBITS + 1) if q not in pair]
    spread = tuple(
        sum(((r >> (3 - i)) & 1) << (N_QUBITS - q) for i, q in enumerate(rest))
        for r in range(16)
    )
    place = tuple(
        tuple(
            (k1 << (N_QUBITS - first) | k2 << (N_QUBITS - second), sign)
            for (k1, k2), sign in BELL_KET_SIGNS[outcome].items()
        )
        for outcome in BELL_OUTCOMES
    )
    # an index's pair bits are a ket of two outcomes: it is reached twice, k1 first
    gather: list[tuple] = [()] * DIM
    for k, kets in enumerate(place):
        for bits, sign in kets:
            for r, base in enumerate(spread):
                index = base | bits
                gather[index] = (gather[index] or (r,)) + (k, sign)
    return tuple(gather), spread, place


def _project(state: DenseState, pair: BellPair) -> tuple[dict[int, int], ...]:
    """<outcome| on a checked pair, for each outcome in BELL_OUTCOMES order.

    Row k maps each pattern of the other four qubits to an int: the amplitude
    in units of 2**(-(exponent + 1)/2), zero where two kets cancel.
    """
    gather = _bell_tables(pair)[0]
    _check_width(state)
    rows: tuple[dict[int, int], ...] = ({}, {}, {}, {})
    for index, amp in state.amplitudes:
        r, k1, sign1, k2, sign2 = gather[index]
        row = rows[k1]
        row[r] = row.get(r, 0) + sign1 * amp
        row = rows[k2]
        row[r] = row.get(r, 0) + sign2 * amp
    return rows


def _weights(state: DenseState, rows: tuple[dict[int, int], ...]) -> list[int]:
    """Each row's sum of squares; ValueError unless they add up as for a unit vector."""
    weights = []
    for row in rows:
        weight = 0
        for amp in row.values():
            weight += amp * amp
        weights.append(weight)
    if sum(weights) != 2 << state.exponent:
        raise ValueError("state is not a unit vector")
    return weights


def _post(pair: BellPair, k: int, row: dict[int, int], weight: int) -> DenseState:
    """The normalized post-state of outcome k: its Bell ket times the projected rest.

    weight is the row's sum of squares; the ket's two terms double it.
    """
    _, spread, place = _bell_tables(pair)
    (bits0, sign0), (bits1, sign1) = place[k]
    scale = math.gcd(*row.values())
    exponent = _norm_exponent(2 * weight, scale)
    entries = []
    for r, amp in row.items():
        if amp:
            amp //= scale
            entries.append((spread[r] | bits0, sign0 * amp))
            entries.append((spread[r] | bits1, sign1 * amp))
    entries.sort()
    return DenseState(tuple(entries), exponent)


def partial_inner(state: DenseState, pair: BellPair, outcome: BellOutcome) -> DenseState:
    """Unnormalized inner product <outcome|state on the pair.

    The result is a vector over the four remaining qubits in ascending order.
    """
    row = _project(state, check_pair(pair))[BELL_OUTCOMES.index(outcome)]
    entries = sorted([(r, amp) for r, amp in row.items() if amp])
    # halve the ints while all are even, so that the vector has its one form
    scale = math.gcd(*row.values())
    twos = (scale & -scale).bit_length() - 1 if scale else 0
    return DenseState(
        tuple([(r, amp >> twos) for r, amp in entries]),
        state.exponent + 1 - 2 * twos,
        N_QUBITS - 2,
    )


@functools.cache
def _probability(weight: int, scale: int) -> Fraction:
    """weight/scale as a Fraction, reduced once per pair: there are few such pairs."""
    from fractions import Fraction

    return Fraction(weight, scale)


def bell_probabilities(
    state: DenseState, pair: BellPair
) -> dict[BellOutcome, tuple[Fraction, DenseState | None]]:
    """Exact Born probabilities and normalized post-states for a Bell measurement.

    An outcome that cannot occur has probability 0 and no post-state, so
    impossible branches cannot be sampled downstream.
    """
    pair = check_pair(pair)
    rows = _project(state, pair)
    weights = _weights(state, rows)
    scale = 2 << state.exponent
    return {
        outcome: (_probability(weight, scale), _post(pair, k, rows[k], weight) if weight else None)
        for k, (outcome, weight) in enumerate(zip(BELL_OUTCOMES, weights))
    }


def measure_bell(state: DenseState, pair: BellPair, rng) -> tuple[BellOutcome, DenseState]:
    """Sample one Bell outcome with Born probabilities; deterministic per rng state.

    rng.random() is compared exactly with the cumulative probabilities: both
    sides are scaled by the same power of two, which a float multiplies exactly.
    """
    pair = check_pair(pair)
    rows = _project(state, pair)
    weights = _weights(state, rows)
    try:
        uniform = rng.random
    except AttributeError:  # no generator
        raise ValueError(f"rng must have a random() method, got {type(rng).__name__}") from None
    # the weights of a unit vector sum to the scale, which the draw stays below
    draw = uniform() * (2 << state.exponent)
    cumulative = 0
    for k, weight in enumerate(weights):
        cumulative += weight
        if draw < cumulative:
            break
    return BELL_OUTCOMES[k], _post(pair, k, rows[k], weights[k])


def global_phase_equal(a: DenseState, b: DenseState) -> bool:
    """True iff a and b are equal up to an overall sign.

    For unit vectors with real amplitudes, as every state here is, that is
    equality up to a global phase.
    """
    try:
        if a.exponent != b.exponent or a.n_qubits != b.n_qubits:
            return False
    except AttributeError:  # not two states
        given = f"{type(a).__name__} and {type(b).__name__}"
        raise ValueError(f"states must be DenseStates, got {given}") from None
    return a.amplitudes == b.amplitudes or a.amplitudes == tuple(
        (i, -amp) for i, amp in b.amplitudes
    )
