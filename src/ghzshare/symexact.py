"""Exact sign arithmetic over signed computational-basis kets.

Mirrors the hand algebra of the reconstruction procedure: a state is a
list of +/-|bitstring> terms over an explicit qubit set, with a shared
normalization factor 2**(-k/2).  Every state reachable in this protocol
has coefficients of that form (the gates are real and Bell kets have
+/-1/sqrt2 entries), so no general complex algebra is needed.

A state holds its qubit layout once; a term is a sign and a bit pattern
over that layout, stored as one integer whose most significant bit is the
layout's first qubit, so a pattern's integer is its dense-vector index.
Qubits are read and moved with shifts, masks and XOR.
``to_statevector``/``from_statevector`` bridge to the exact dense vectors of
``qcore``: a term is one nonzero amplitude, its pattern the basis index.

The sixteen Bell-product expansions of a pairing are a cached table, filled
on first use; states are immutable, so every caller may share them.

Canonical form sorts terms by bit pattern and cancels opposite-sign
duplicates; same-pattern terms that add instead of cancelling are
absorbed into the normalization exponent when the multiplicity is a
uniform power of two.
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .qcore import (
    BELL_KET_SIGNS,
    BELL_OUTCOMES,
    GATE_IMAGES,
    BellOutcome,
    BellPair,
    DenseState,
    NotDyadic,
    PauliGate,
    check_pair,
)


class SymexactError(Exception):
    """Base class for symbolic-algebra errors."""


class OverlappingQubits(SymexactError):
    """Tensor factors in a product share qubits."""


class NotBellExpressible(SymexactError):
    """State is not a uniform signed sum of Bell-pair products."""


class EmptyState(SymexactError):
    """All terms cancelled; the zero vector has no state semantics."""


class _Term(NamedTuple):
    bits: int
    sign: int


class Term(_Term):
    """One signed computational-basis ket; its state holds the qubit layout.

    ``bits`` is the pattern as an integer, the layout's first qubit being the
    most significant bit.  Terms order by (bits, sign).
    """

    __slots__ = ()

    def __new__(cls, bits: int, sign: int) -> Term:
        term = tuple.__new__(cls, (bits, sign))
        # looked up on each call, so that a hook set on the class sees every term built
        cls.__post_init__(term)
        return term

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> Term:
        # the generated _make, which _replace calls, would skip __new__
        return cls(*iterable)

    def __reduce__(self) -> tuple[type[Term], tuple[int, int]]:
        # pickle protocols 0 and 1 would otherwise rebuild with tuple.__new__, past the check
        return type(self), tuple(self)

    def __post_init__(self) -> None:
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"term sign must be +/-1, got {self.sign!r}")
        if type(self.bits) is not int or self.bits < 0:
            raise ValueError(f"bits must be a non-negative int, got {self.bits!r}")


def _shifts(layout: tuple[int, ...], qubits: tuple[int, ...]) -> tuple[int, ...]:
    """Right shift that brings each of ``qubits`` to bit 0 of a pattern over ``layout``."""
    missing = [q for q in qubits if q not in layout]
    if missing:
        raise ValueError(f"qubit {missing[0]} not in state over {layout}")
    top = len(layout) - 1
    return tuple(top - layout.index(q) for q in qubits)


def _canonical(
    qubits: tuple[int, ...], raw_terms: Iterable[Term], norm_exponent: int
) -> tuple[tuple[Term, ...], int]:
    if tuple(sorted(set(qubits))) != qubits:
        raise ValueError(f"qubits must be strictly ascending, got {qubits!r}")
    raw = tuple(raw_terms)
    top = max((t.bits for t in raw), default=0)
    if top >> len(qubits):
        raise ValueError(f"pattern {top:b} does not fit state qubits {qubits}")
    if all(a.bits < b.bits for a, b in zip(raw, raw[1:])):
        # strictly ascending patterns are canonical already: nothing to merge
        return raw, norm_exponent
    net: dict[int, int] = {}
    for t in raw:
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


class SymbolicState(NamedTuple):
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

    def key(self, term: Term) -> str:
        """A term's bit pattern over this state's qubits, first qubit leftmost."""
        width = len(self.qubits)
        return format(term.bits, f"0{width}b") if width else ""

    def render(self) -> str:
        if not self.terms:
            return "0"
        body = " ".join(
            ("+" if t.sign > 0 else "-") + "|" + self.key(t) + ">" for t in self.terms
        )
        qubits = ",".join(str(q) for q in self.qubits)
        return f"{body} on ({qubits})"

    def term_signs(self) -> tuple[tuple[str, int], ...]:
        return tuple((self.key(t), t.sign) for t in self.terms)


def bell_terms(outcome: BellOutcome, pair: BellPair) -> SymbolicState:
    """Two-term expansion of a Bell ket on a qubit pair (norm exponent 1)."""
    first, second = check_pair(pair)
    ascending = first < second
    qubits = (first, second) if ascending else (second, first)
    try:
        kets = BELL_KET_SIGNS[outcome]
    except (KeyError, TypeError):  # not a BellOutcome, or unhashable
        raise ValueError(f"outcome must be a BellOutcome, got {outcome!r}") from None
    terms = []
    for (k1, k2), sign in kets.items():
        bits = k1 << 1 | k2 if ascending else k2 << 1 | k1
        terms.append(Term(bits, sign))
    return SymbolicState.from_terms(qubits, terms, 1)


def _spread(bits: int, shifts: tuple[int, ...]) -> int:
    """Move the bits of a pattern, first qubit first, to the given shifts of a wider one."""
    out = 0
    for i, s in enumerate(reversed(shifts)):
        out |= (bits >> i & 1) << s
    return out


def expand_product(parts: Sequence[SymbolicState]) -> SymbolicState:
    """Distributive product of states over pairwise-disjoint qubit sets."""
    seen: set[int] = set()
    try:
        # taken once: a one-shot iterator would be empty on the next pass
        parts = tuple(parts)
        for part in parts:
            overlap = seen.intersection(part.qubits)
            if overlap:
                raise OverlappingQubits(f"qubits {sorted(overlap)} appear in more than one factor")
            seen.update(part.qubits)
    except TypeError:  # parts is no iterable
        given = type(parts).__name__
        raise ValueError(f"parts must be a sequence of SymbolicStates, got {given}") from None
    except AttributeError:  # a part is no state
        given = type(part).__name__
        raise ValueError(f"each part must be a SymbolicState, got {given}") from None
    qubits = tuple(sorted(seen))
    norm_exponent = sum(p.norm_exponent for p in parts)
    # each factor's terms as (pattern over the product's qubits, sign)
    placed = []
    for part in parts:
        shifts = _shifts(qubits, part.qubits)
        placed.append([(_spread(t.bits, shifts), t.sign) for t in part.terms])
    raw = []
    for combo in itertools.product(*placed):
        bits, sign = 0, 1
        for b, s in combo:
            bits |= b
            sign *= s
        raw.append(Term(bits, sign))
    return SymbolicState.from_terms(qubits, raw, norm_exponent)


def apply_gate_sym(state: SymbolicState, gate: PauliGate, qubit: int) -> SymbolicState:
    """Apply an encoding gate at one qubit of a symbolic state."""
    shift = _shifts(state.qubits, (qubit,))[0]
    images = GATE_IMAGES[gate]
    new_terms = []
    for t in state.terms:
        image, sign = images[t.bits >> shift & 1]
        new_terms.append(Term(t.bits & ~(1 << shift) | image << shift, sign * t.sign))
    return SymbolicState.from_terms(state.qubits, new_terms, state.norm_exponent)


def equal_up_to_global_sign(a: SymbolicState, b: SymbolicState) -> bool:
    """Term-pattern and sign equality, allowing one overall sign flip.

    Normalization exponents are ignored; patterns and relative signs are not.
    """
    if a.qubits != b.qubits or len(a.terms) != len(b.terms):
        return False
    return a.terms == b.terms or all(
        x.bits == y.bits and x.sign == -y.sign for x, y in zip(a.terms, b.terms)
    )


@functools.cache
def bell_products(
    pairing: tuple[BellPair, BellPair],
) -> Mapping[tuple[BellOutcome, BellOutcome], SymbolicState]:
    """The sixteen Bell(x)Bell product expansions of one pairing, by outcome pair."""
    pair1, pair2 = pairing
    return MappingProxyType(
        {
            (o1, o2): expand_product([bell_terms(o1, pair1), bell_terms(o2, pair2)])
            for o1 in BELL_OUTCOMES
            for o2 in BELL_OUTCOMES
        }
    )


class BellProductExpr(NamedTuple):
    """A signed sum of Bell(x)Bell products over a fixed 4-qubit pairing."""

    pairing: tuple[BellPair, BellPair]
    entries: tuple[tuple[BellOutcome, BellOutcome, int], ...]

    def expand(self) -> SymbolicState:
        """Re-expand into computational-basis terms (norm exponent not preserved).

        With no entries the result is the cancelled state over the pairing's
        four qubits, the value that ``render`` writes as ``0``.
        """
        pair1, pair2 = self.pairing
        products = bell_products(self.pairing)
        raw: list[Term] = []
        for o1, o2, sign in self.entries:
            terms = products[o1, o2].terms
            # a +1 entry is its product's own terms; any other sign goes through Term's check
            if type(sign) is int and sign == 1:
                raw.extend(terms)
            else:
                raw.extend([Term(t.bits, t.sign * sign) for t in terms])
        return SymbolicState.from_terms(tuple(sorted({*pair1, *pair2})), raw, 2)

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
    try:
        pair1, pair2 = pairing
    except (TypeError, ValueError):  # not a sequence, or not of two
        raise ValueError(f"pairing must be two qubit pairs, got {pairing!r}") from None
    # the cache key: a list pairing, or a list pair, as the tuples it holds
    pairing = (check_pair(pair1), check_pair(pair2))
    expected = tuple(sorted(set(pair1) | set(pair2)))
    try:
        qubits = state.qubits
    except AttributeError:  # no state
        raise ValueError(f"state must be a SymbolicState, got {type(state).__name__}") from None
    if qubits != expected or len(expected) != 4:
        raise ValueError(f"state over {qubits} does not match pairing {pairing}")
    if not state.terms:
        raise EmptyState("cannot decompose a cancelled state")
    signs = dict(state.terms)
    entries = []
    overlaps = []
    for (o1, o2), product in bell_products(pairing).items():
        # the overlap with the product: the signs of their shared patterns, multiplied and summed
        m = sum([sign * signs.get(bits, 0) for bits, sign in product.terms])
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


def to_statevector(state: SymbolicState) -> DenseState:
    """Normalized dense vector over the state's qubits, ascending order."""
    if not state.terms:
        raise EmptyState("all terms cancelled")
    count = len(state.terms)
    if count & (count - 1):
        raise NotDyadic(f"{count} equal terms do not normalize to a power of sqrt2")
    return DenseState(
        tuple([(t.bits, t.sign) for t in state.terms]),
        count.bit_length() - 1,
        len(state.qubits),
    )


def from_statevector(vec: DenseState, qubits: Sequence[int]) -> SymbolicState:
    """Symbolic form of a uniform-magnitude vector; inverse of to_statevector."""
    if vec.n_qubits != len(qubits):
        raise ValueError(f"vector over {vec.n_qubits} qubits does not span qubits {tuple(qubits)}")
    if not vec.amplitudes:
        raise ValueError("zero vector")
    mag = abs(vec.amplitudes[0][1])
    if any(abs(amp) != mag for _, amp in vec.amplitudes):
        raise ValueError("vector is not uniform-magnitude")
    if mag & (mag - 1):
        raise NotDyadic(f"magnitude {mag} is not a power of two")
    terms = [Term(index, 1 if amp > 0 else -1) for index, amp in vec.amplitudes]
    # each term's magnitude is mag * 2**(-exponent/2) = 2**(-k/2)
    return SymbolicState.from_terms(qubits, terms, vec.exponent - 2 * (mag.bit_length() - 1))
