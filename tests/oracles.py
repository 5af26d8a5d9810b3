"""Readers the tests check the package against, kept apart from its code.

The package reads term patterns with integer shifts and masks; these read
them as strings, the way the paper writes them.  The Pauli frame reads the
dealer's gate off three Bell outcomes in closed form, with neither the
dense engine nor the reconstruction.
"""

from typing import Sequence

from ghzshare.qcore import PauliGate
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
