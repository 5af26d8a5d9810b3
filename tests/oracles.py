"""Readers the tests check the package against, kept apart from its code.

The package reads term patterns with integer shifts and masks; these read
them as strings, the way the paper writes them.
"""

from typing import Sequence

from ghzshare.symexact import Term


def restrict(layout: Sequence[int], term: Term, qubits: Sequence[int]) -> str:
    """Bits of a term of a state over ``layout``, read off in the given qubit order.

    The pattern is written out at the layout's width, first qubit first, and
    each qubit's character is picked by its place in the layout; a qubit
    outside the layout raises ValueError.
    """
    pattern = format(term.bits, f"0{len(layout)}b")
    return "".join(pattern[list(layout).index(q)] for q in qubits)
