"""Exact sign arithmetic over signed computational-basis kets.

Mirrors the hand algebra of the reconstruction procedure: a state is a
list of +/-|bitstring> terms over an explicit qubit set, with a shared
normalization factor 2**(-k/2).  Every state reachable in this protocol
has coefficients of that form (the gates are real and Bell kets have
+/-1/sqrt2 entries), so no general complex algebra is needed.

A state holds its qubit layout once; a term is a bit pattern over it and
a sign.  ``to_statevector``/``from_statevector`` bridge to dense vectors.

Canonical form sorts terms by bit pattern and cancels opposite-sign
duplicates; same-pattern terms that add instead of cancelling are
absorbed into the normalization exponent when the multiplicity is a
uniform power of two.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qcore import BELL_OUTCOMES, BellOutcome, BellPair, PauliGate, _BELL_KET_SIGNS


class SymexactError(Exception):
    """Base class for symbolic-algebra errors."""


class OverlappingQubits(SymexactError):
    """Tensor factors in a product share qubits."""


class NotBellExpressible(SymexactError):
    """State is not a uniform signed sum of Bell-pair products."""


class EmptyState(SymexactError):
    """All terms cancelled; the zero vector has no state semantics."""


@dataclass(frozen=True, order=True)
class Term:
    """One signed computational-basis ket; its state holds the qubit layout."""

    bits: tuple[int, ...]
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"term sign must be +/-1, got {self.sign!r}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0/1, got {self.bits!r}")

    def key(self) -> str:
        return "".join(str(b) for b in self.bits)

    def render(self) -> str:
        return ("+" if self.sign > 0 else "-") + "|" + self.key() + ">"


def restrict(layout: Sequence[int], term: Term, qubits: Sequence[int]) -> str:
    """Bits of a term of a state over ``layout``, read off in the given qubit order."""
    lookup = dict(zip(layout, term.bits))
    try:
        return "".join(str(lookup[q]) for q in qubits)
    except KeyError as exc:
        raise ValueError(f"qubit {exc.args[0]} not in state over {tuple(layout)}") from exc


def _canonical(
    qubits: tuple[int, ...], raw_terms: Iterable[Term], norm_exponent: int
) -> tuple[tuple[Term, ...], int]:
    if tuple(sorted(set(qubits))) != qubits:
        raise ValueError(f"qubits must be strictly ascending, got {qubits!r}")
    net: dict[tuple[int, ...], int] = {}
    for t in raw_terms:
        if len(t.bits) != len(qubits):
            raise ValueError(f"term {t.render()} does not match state qubits {qubits}")
        net[t.bits] = net.get(t.bits, 0) + t.sign
    counts = {abs(v) for v in net.values() if v != 0}
    if not counts:
        return (), norm_exponent
    if len(counts) > 1:
        raise SymexactError(f"non-uniform term multiplicities {sorted(counts)}")
    mult = counts.pop()
    if mult & (mult - 1):
        raise SymexactError(f"multiplicity {mult} is not a power of two")
    norm_exponent -= 2 * (mult.bit_length() - 1)
    terms = tuple(Term(bits, 1 if v > 0 else -1) for bits, v in sorted(net.items()) if v != 0)
    return terms, norm_exponent


@dataclass(frozen=True)
class SymbolicState:
    """Signed computational-basis terms with a 2**(-k/2) prefactor."""

    qubits: tuple[int, ...]
    terms: tuple[Term, ...]
    norm_exponent: int

    @classmethod
    def from_terms(
        cls, qubits: Sequence[int], terms: Iterable[Term], norm_exponent: int = 0
    ) -> "SymbolicState":
        qs = tuple(qubits)
        canon, k = _canonical(qs, terms, norm_exponent)
        return cls(qs, canon, k)

    def negate(self) -> "SymbolicState":
        return SymbolicState(
            self.qubits,
            tuple(Term(t.bits, -t.sign) for t in self.terms),
            self.norm_exponent,
        )

    def render(self) -> str:
        if not self.terms:
            return "0"
        body = " ".join(t.render() for t in self.terms)
        qubits = ",".join(str(q) for q in self.qubits)
        return f"{body} on ({qubits})"

    def term_signs(self) -> tuple[tuple[str, int], ...]:
        return tuple((t.key(), t.sign) for t in self.terms)


def identity_state() -> SymbolicState:
    """The empty tensor factor: one sign-+1 term over no qubits."""
    return SymbolicState((), (Term((), 1),), 0)


def bell_terms(outcome: BellOutcome, pair: BellPair) -> SymbolicState:
    """Two-term expansion of a Bell ket on a qubit pair (norm exponent 1)."""
    first, second = pair
    if first == second:
        raise ValueError(f"pair must use two distinct qubits, got {pair!r}")
    ascending = first < second
    qubits = (first, second) if ascending else (second, first)
    terms = []
    for (k1, k2), sign in _BELL_KET_SIGNS[outcome].items():
        bits = (k1, k2) if ascending else (k2, k1)
        terms.append(Term(bits, sign))
    return SymbolicState.from_terms(qubits, terms, 1)


def expand_product(parts: Sequence[SymbolicState]) -> SymbolicState:
    """Distributive product of states over pairwise-disjoint qubit sets."""
    seen: set[int] = set()
    for part in parts:
        overlap = seen.intersection(part.qubits)
        if overlap:
            raise OverlappingQubits(f"qubits {sorted(overlap)} appear in more than one factor")
        seen.update(part.qubits)
    qubits = tuple(sorted(seen))
    norm_exponent = sum(p.norm_exponent for p in parts)
    raw = []
    for combo in itertools.product(*(p.terms for p in parts)):
        assignment: dict[int, int] = {}
        sign = 1
        for part, t in zip(parts, combo):
            sign *= t.sign
            assignment.update(zip(part.qubits, t.bits))
        raw.append(Term(tuple(assignment[q] for q in qubits), sign))
    return SymbolicState.from_terms(qubits, raw, norm_exponent)


def add_states(states: Sequence[SymbolicState]) -> SymbolicState:
    """Sum of states over the same qubit set and normalization exponent."""
    if not states:
        raise ValueError("nothing to add")
    qubits = states[0].qubits
    exponent = states[0].norm_exponent
    for s in states[1:]:
        if s.qubits != qubits or s.norm_exponent != exponent:
            raise ValueError("addition requires matching qubit sets and exponents")
    raw = [t for s in states for t in s.terms]
    return SymbolicState.from_terms(qubits, raw, exponent)


def apply_gate_sym(state: SymbolicState, gate: PauliGate, qubit: int) -> SymbolicState:
    """Apply an encoding gate at one qubit of a symbolic state."""
    if qubit not in state.qubits:
        raise ValueError(f"qubit {qubit} not in state over {state.qubits}")
    pos = state.qubits.index(qubit)
    new_terms = []
    for t in state.terms:
        bit, sign = t.bits[pos], t.sign
        if gate is PauliGate.I:
            pass
        elif gate is PauliGate.X:
            bit = 1 - bit
        elif gate is PauliGate.Z:
            sign = -sign if bit == 1 else sign
        else:  # iY: |0> -> -|1>, |1> -> |0>
            sign = -sign if bit == 0 else sign
            bit = 1 - bit
        bits = t.bits[:pos] + (bit,) + t.bits[pos + 1 :]
        new_terms.append(Term(bits, sign))
    return SymbolicState.from_terms(state.qubits, new_terms, state.norm_exponent)


def equal_up_to_global_sign(a: SymbolicState, b: SymbolicState) -> bool:
    """Term-pattern and sign equality, allowing one overall sign flip.

    Normalization exponents are ignored; patterns and relative signs are not.
    """
    if a.qubits != b.qubits:
        return False
    return a.terms == b.terms or a.terms == b.negate().terms


@dataclass(frozen=True)
class BellProductExpr:
    """A signed sum of Bell(x)Bell products over a fixed 4-qubit pairing."""

    pairing: tuple[BellPair, BellPair]
    entries: tuple[tuple[BellOutcome, BellOutcome, int], ...]

    def expand(self) -> SymbolicState:
        """Re-expand into computational-basis terms (norm exponent not preserved)."""
        parts = []
        for o1, o2, sign in self.entries:
            product = expand_product(
                [bell_terms(o1, self.pairing[0]), bell_terms(o2, self.pairing[1])]
            )
            parts.append(product if sign > 0 else product.negate())
        return add_states(parts)

    def render(self) -> str:
        if not self.entries:
            return "0"
        (p1a, p1b), (p2a, p2b) = self.pairing
        chunks = []
        for o1, o2, sign in self.entries:
            chunks.append(
                ("+" if sign > 0 else "-")
                + f"{o1.ascii}({p1a},{p1b}){o2.ascii}({p2a},{p2b})"
            )
        return " ".join(chunks)

    def signature(self) -> tuple[tuple[str, str, int], ...]:
        return tuple((o1.ascii, o2.ascii, s) for o1, o2, s in self.entries)


def bell_decompose(
    state: SymbolicState, pairing: tuple[BellPair, BellPair]
) -> BellProductExpr:
    """Express a 4-qubit state as a signed sum of Bell(x)Bell products.

    Only uniform expansions are supported: every nonzero coefficient must
    share the same power-of-two overlap magnitude; anything else raises
    NotBellExpressible rather than approximating.
    """
    pair1, pair2 = pairing
    expected = tuple(sorted(set(pair1) | set(pair2)))
    if state.qubits != expected or len(expected) != 4:
        raise ValueError(f"state over {state.qubits} does not match pairing {pairing}")
    if not state.terms:
        raise EmptyState("cannot decompose a cancelled state")
    state_signs = {t.bits: t.sign for t in state.terms}
    entries = []
    overlaps = []
    for o1 in BELL_OUTCOMES:
        for o2 in BELL_OUTCOMES:
            candidate = expand_product([bell_terms(o1, pair1), bell_terms(o2, pair2)])
            m = sum(state_signs.get(t.bits, 0) * t.sign for t in candidate.terms)
            if m:
                entries.append((o1, o2, 1 if m > 0 else -1))
                overlaps.append(abs(m))
    magnitudes = set(overlaps)
    if len(magnitudes) != 1:
        raise NotBellExpressible(
            f"coefficients are not uniform over Bell products (overlaps {sorted(magnitudes)})"
        )
    mag = magnitudes.pop()
    if mag & (mag - 1):
        raise NotBellExpressible(f"overlap {mag} is not a power of two")
    if len(entries) not in (1, 2, 4):
        # only the expansions that occur in this protocol are supported
        raise NotBellExpressible(f"{len(entries)}-entry expansion is out of scope")
    expr = BellProductExpr(pairing, tuple(entries))
    if expr.expand().terms != state.terms:
        raise NotBellExpressible("state is not a uniform Bell-product sum")
    return expr


@functools.cache
def _basis_index(n: int) -> dict[tuple[int, ...], int]:
    """Dense-vector index of each n-bit pattern, in index order; the first qubit is the MSB."""
    return {bits: i for i, bits in enumerate(itertools.product((0, 1), repeat=n))}


def to_statevector(state: SymbolicState) -> np.ndarray:
    """Normalized dense vector over the state's qubits, ascending order."""
    if not state.terms:
        raise EmptyState("all terms cancelled")
    index = _basis_index(len(state.qubits))
    vec = np.zeros(len(index))
    for t in state.terms:
        vec[index[t.bits]] = t.sign
    return vec / math.sqrt(len(state.terms))


def from_statevector(vec: np.ndarray, qubits: Sequence[int]) -> SymbolicState:
    """Symbolic form of a uniform-magnitude real vector; inverse of to_statevector."""
    flat = np.asarray(vec).reshape(-1)
    index = _basis_index(len(qubits))
    if flat.size != len(index):
        raise ValueError(f"vector of size {flat.size} does not span qubits {tuple(qubits)}")
    support = [(bits, amp) for bits, amp in zip(index, flat.tolist()) if abs(amp) > 1e-9]
    if not support:
        raise ValueError("zero vector")
    mag = abs(support[0][1])
    if any(abs(abs(amp) - mag) > 1e-9 for _, amp in support):
        raise ValueError("vector is not uniform-magnitude")
    terms = [Term(bits, 1 if amp > 0 else -1) for bits, amp in support]
    return SymbolicState.from_terms(qubits, terms, round(-2.0 * math.log2(mag)))
