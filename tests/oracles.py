"""Readers the tests check the package against, kept apart from its code.

The package reads term patterns with integer shifts and masks; these read
them as strings, the way the paper writes them.  The Pauli frame reads the
dealer's gate off three Bell outcomes in closed form, with neither the
dense engine nor the reconstruction.  The Bell gather table is derived here
index by index, straight from the kets' signs, where the package builds it
from its own placement tables.
"""

from typing import Sequence

from ghzshare.qcore import BELL_KET_SIGNS, BELL_OUTCOMES, N_QUBITS, PauliGate
from ghzshare.symexact import Term

# the gate that the (bit, phase) Pauli frame of three Bell outcomes names
FRAME = {(0, 0): PauliGate.I, (1, 0): PauliGate.X, (1, 1): PauliGate.IY, (0, 1): PauliGate.Z}


def par(outcome) -> int:
    """An outcome's bit parity: 1 for b+ and b-."""
    return int(outcome.value[0] == "b")


def ph(outcome) -> int:
    """An outcome's phase: 1 for a- and b-."""
    return int(outcome.value[1] == "-")


def restrict(layout: Sequence[int], term: Term, qubits: Sequence[int]) -> str:
    """Bits of a term of a state over ``layout``, read off in the given qubit order.

    The pattern is written out at the layout's width, first qubit first, and
    each qubit's character is picked by its place in the layout; a qubit
    outside the layout raises ValueError.
    """
    pattern = format(term.bits, f"0{len(layout)}b")
    return "".join(pattern[list(layout).index(q)] for q in qubits)


def bits_to_index(bits: Sequence[int]) -> int:
    """The basis index of a bit pattern, its first bit the most significant."""
    index = 0
    for b in bits:
        index = (index << 1) | b
    return index


def bell_gather(pair: tuple[int, int]) -> tuple[tuple[int, int, int, int, int], ...]:
    """Per basis index, (r, k1, sign1, k2, sign2), as ``qcore._bell_tables`` documents.

    r is the pattern on the other four qubits; k1 < k2 are the two outcomes
    in ``BELL_OUTCOMES`` whose kets hold the pair's bits, with those signs.
    """
    first, second = pair
    rest = [q for q in range(1, N_QUBITS + 1) if q not in pair]
    gather = []
    for index in range(2**N_QUBITS):
        r = bits_to_index([(index >> (N_QUBITS - q)) & 1 for q in rest])
        ket = ((index >> (N_QUBITS - first)) & 1, (index >> (N_QUBITS - second)) & 1)
        contributions = [
            (k, BELL_KET_SIGNS[outcome][ket])
            for k, outcome in enumerate(BELL_OUTCOMES)
            if ket in BELL_KET_SIGNS[outcome]
        ]
        (k1, sign1), (k2, sign2) = contributions
        gather.append((r, k1, sign1, k2, sign2))
    return tuple(gather)
