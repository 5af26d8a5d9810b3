"""Symbolic term algebra tests: expansion, decomposition, the numeric bridge."""

import itertools
import random
import re

import pytest

from ghzshare.qcore import (
    BELL_OUTCOMES,
    GATES,
    LABELS,
    DenseState,
    NotDyadic,
    PauliGate,
    StateLabel,
    apply_gate,
    bell_probabilities,
    global_phase_equal,
    measure_bell,
    normalized,
    partial_inner,
    prepare_state,
)
from ghzshare.symexact import (
    BellProductExpr,
    EmptyState,
    NotBellExpressible,
    OverlappingQubits,
    SymbolicState,
    SymexactError,
    Term,
    apply_gate_sym,
    bell_decompose,
    bell_terms,
    equal_up_to_global_sign,
    expand_product,
    from_statevector,
    to_statevector,
)

from oracles import bits_to_index, restrict

A_P, A_M, B_P, B_M = BELL_OUTCOMES


def state_of(qubits, signed_bits, k=0):
    terms = [Term(int(bits, 2), sign) for bits, sign in signed_bits]
    return SymbolicState.from_terms(tuple(qubits), terms, k)


def test_bell_terms_conventions():
    assert bell_terms(A_M, (2, 5)).term_signs() == (("00", 1), ("11", -1))
    assert bell_terms(B_P, (1, 6)).term_signs() == (("01", 1), ("10", 1))
    assert bell_terms(A_P, (3, 4)).term_signs() == (("00", 1), ("11", 1))
    assert bell_terms(B_M, (2, 5)).term_signs() == (("01", 1), ("10", -1))
    assert bell_terms(A_P, (1, 6)).norm_exponent == 1


def test_bell_terms_rejects_an_outcome_given_as_text():
    for bad in ["a+", None, ["a+"]]:
        message = f"^outcome must be a BellOutcome, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            bell_terms(bad, (1, 6))


def test_bell_terms_checks_the_pair_before_its_table():
    # True == 1: an unchecked (True, 6) would give a state over a bool qubit
    for bad in [(True, 6), (1, 7), (2, 2)]:
        with pytest.raises(ValueError):
            bell_terms(A_P, bad)
    state = bell_terms(A_P, (1, 6))
    assert state.qubits == (1, 6)
    assert all(type(q) is int for q in state.qubits)
    assert state.render() == "+|00> +|11> on (1,6)"
    assert bell_terms(A_P, [1, 6]) == state
    assert bell_terms(B_M, (6, 1)).term_signs() == (("01", -1), ("10", 1))


def test_expand_product_reproduces_four_term_expansion():
    product = expand_product([bell_terms(A_M, (2, 5)), bell_terms(A_P, (3, 4))])
    assert product.qubits == (2, 3, 4, 5)
    assert product.term_signs() == (("0000", 1), ("0110", 1), ("1001", -1), ("1111", -1))
    assert product.norm_exponent == 2


def test_expand_product_attaches_p1_share():
    kept = state_of((2, 3, 4, 5), [("0000", 1), ("1111", -1)], k=2)
    attached = expand_product([bell_terms(B_P, (1, 6)), kept])
    assert attached.term_signs() == (
        ("000001", 1),
        ("011111", -1),
        ("100000", 1),
        ("111110", -1),
    )
    assert attached.norm_exponent == 3


def test_expand_product_identity_factor():
    kept = state_of((2, 3), [("00", 1), ("11", -1)], k=1)
    # the empty tensor factor: one sign-+1 term over no qubits
    identity = SymbolicState((), (Term(0, 1),), 0)
    product = expand_product([identity, kept])
    assert product == kept


def test_expand_product_rejects_overlap():
    with pytest.raises(OverlappingQubits):
        expand_product([bell_terms(A_P, (1, 6)), bell_terms(A_P, (1, 2))])


def test_expand_product_takes_an_iterator_or_a_generator_as_its_list():
    parts = [bell_terms(A_P, (2, 3)), bell_terms(B_M, (4, 5))]
    listed = expand_product(parts)
    assert listed.render() == "+|0001> -|0010> +|1101> -|1110> on (2,3,4,5)"
    assert listed.norm_exponent == 2
    # parts are read more than once, so a one-shot iterable must not run dry
    assert expand_product(iter(parts)) == listed
    assert expand_product(part for part in parts) == listed


def test_expand_product_associative_commutative():
    parts = [bell_terms(A_M, (2, 5)), bell_terms(B_P, (3, 4)), bell_terms(A_P, (1, 6))]
    base = expand_product(parts)
    for perm in itertools.permutations(parts):
        assert expand_product(list(perm)) == base
    nested = expand_product([expand_product(parts[:2]), parts[2]])
    assert nested == base


def test_bell_decompose_two_entry_forms():
    s = state_of((2, 3, 4, 5), [("0000", 1), ("1111", -1)])
    expr = bell_decompose(s, ((2, 3), (4, 5)))
    assert expr.signature() == (("a+", "a-", 1), ("a-", "a+", 1))

    s2 = state_of((2, 3, 4, 5), [("0000", 1), ("1111", 1)])
    expr2 = bell_decompose(s2, ((2, 5), (3, 4)))
    assert expr2.signature() == (("a+", "a+", 1), ("a-", "a-", 1))

    # the worked four-term premise re-paired: -a+a- - a-a+ on (2,5),(3,4)
    s3 = state_of((2, 3, 4, 5), [("0000", -1), ("1111", 1)])
    expr3 = bell_decompose(s3, ((2, 5), (3, 4)))
    assert expr3.signature() == (("a+", "a-", -1), ("a-", "a+", -1))


def test_bell_decompose_round_trip_reachable_states():
    for label in LABELS:
        for gate in GATES:
            encoded = apply_gate(prepare_state(label), gate, 1)
            for outcome, (p, _) in bell_probabilities(encoded, (1, 6)).items():
                if p == 0:
                    continue
                rest = partial_inner(encoded, (1, 6), outcome)
                s = from_statevector(normalized(rest), (2, 3, 4, 5))
                for pairing in (((2, 3), (4, 5)), ((2, 5), (3, 4))):
                    expr = bell_decompose(s, pairing)
                    assert expr.expand().terms == s.terms


def test_bell_decompose_rejects_non_uniform_state():
    s = state_of((2, 3, 4, 5), [("0000", 1), ("0110", 1)])
    with pytest.raises(NotBellExpressible):
        bell_decompose(s, ((2, 3), (4, 5)))


def test_bell_decompose_single_term_is_four_entry():
    s = state_of((2, 3, 4, 5), [("0000", 1)])
    expr = bell_decompose(s, ((2, 3), (4, 5)))
    assert len(expr.entries) == 4
    assert expr.expand().terms == s.terms


def test_bell_decompose_supports_only_one_two_and_four_entry_sums():
    # a uniform three-entry sum passes every check but the scope guard
    pairing = ((2, 3), (4, 5))
    three = BellProductExpr(pairing, ((A_P, A_P, 1), (A_P, B_P, 1), (B_P, B_P, 1)))
    with pytest.raises(NotBellExpressible, match="^3-entry expansion is out of scope$"):
        bell_decompose(three.expand(), pairing)
    four = BellProductExpr(pairing, ((A_P, A_P, 1), (A_P, B_P, 1), (B_P, A_P, 1), (B_P, B_P, 1)))
    assert bell_decompose(four.expand(), pairing) == four


def test_apply_gate_sym_rejects_a_qubit_outside_the_state():
    s = state_of((1, 2), [("00", 1), ("11", 1)])
    with pytest.raises(ValueError, match=r"^qubit 3 not in state over \(1, 2\)$"):
        apply_gate_sym(s, PauliGate.X, 3)


def test_to_statevector_two_terms():
    s = state_of((1, 2, 3, 4, 5, 6), [("000000", 1), ("111111", -1)])
    # +-1 each over sqrt(2)**1
    assert to_statevector(s) == DenseState(((0, 1), (63, -1)), 1, 6)


def test_to_statevector_four_terms_quarter_magnitudes():
    s = state_of(
        (1, 2, 3, 4, 5, 6),
        [("000001", 1), ("011111", -1), ("100000", 1), ("111110", -1)],
    )
    vec = to_statevector(s)
    # +-1 each over sqrt(2)**2
    assert vec.exponent == 2
    indices = (int("000001", 2), int("011111", 2), int("100000", 2), int("111110", 2))
    assert vec.amplitudes == tuple(zip(indices, (1, -1, 1, -1)))


def test_to_statevector_rejects_counts_that_are_not_powers_of_two():
    s = state_of((1, 2), [("00", 1), ("01", 1), ("10", -1)])
    with pytest.raises(NotDyadic):
        to_statevector(s)


def test_cancellation_raises_empty_state():
    terms = [
        Term(int("000000", 2), 1),
        Term(int("000000", 2), -1),
    ]
    s = SymbolicState.from_terms((1, 2, 3, 4, 5, 6), terms, 0)
    assert s.terms == ()
    with pytest.raises(EmptyState):
        to_statevector(s)


def test_restrict():
    layout = (1, 2, 3, 4, 5, 6)
    t = Term(int("011000", 2), 1)
    assert restrict(layout, t, (4, 5, 6)) == "000"
    u = Term(int("100111", 2), -1)
    assert restrict(layout, u, (1, 2, 3)) == "100"
    assert restrict(layout, u, ()) == ""
    assert restrict((2, 3, 4, 5), Term(int("0110", 2), 1), (5, 2)) == "00"
    with pytest.raises(ValueError):
        restrict((2, 3, 4, 5), Term(int("0110", 2), 1), (1,))


@pytest.mark.parametrize(
    "qubits,bits,message",
    [
        ((2, 1), int("01", 2), r"^qubits must be strictly ascending, got \(2, 1\)$"),
        ((1, 1), int("01", 2), r"^qubits must be strictly ascending, got \(1, 1\)$"),
        ((), int("1", 2), "does not fit state qubits"),
        ((1, 2), int("111", 2), "does not fit state qubits"),
        ((1, 2), int("100", 2), "does not fit state qubits"),
        ((1, 2, 3), 2**64, "does not fit state qubits"),
    ],
    ids=["descending", "duplicate", "empty-layout", "long-bits", "at-limit", "far-out"],
)
def test_from_terms_rejects_bad_layout(qubits, bits, message):
    with pytest.raises(ValueError, match=message):
        SymbolicState.from_terms(qubits, [Term(bits, 1)])


def test_from_terms_range_check_covers_cancelled_patterns():
    out_of_range = int("100", 2)
    with pytest.raises(ValueError):
        SymbolicState.from_terms((1, 2), [Term(out_of_range, 1), Term(out_of_range, -1)])


@pytest.mark.parametrize(
    "bits,sign",
    [
        (int("01", 2), 0),
        (int("01", 2), 2),
        (int("01", 2), -2),
        (int("01", 2), True),
        (int("01", 2), False),
        (int("01", 2), 1.0),
        ((0, 2), 1),
        ((1, -1), 1),
        (-1, 1),
        (True, 1),
        (1.0, 1),
        ("01", 1),
        (None, 1),
    ],
)
def test_term_rejects_bad_sign_or_bits(bits, sign):
    with pytest.raises(ValueError):
        Term(bits, sign)


def test_terms_sort_by_bits_then_sign():
    terms = [Term(bits, sign) for bits in range(16) for sign in (1, -1)]
    shuffled = random.Random(0).sample(terms, len(terms))
    ordered = sorted(shuffled)
    assert ordered == sorted(shuffled, key=lambda t: (t.bits, t.sign))
    assert ordered[:3] == [Term(0, -1), Term(0, 1), Term(1, -1)]
    assert Term(1, 1) < Term(2, -1) and max(shuffled) == Term(15, 1)


def test_term_runs_post_init_once_per_construction(monkeypatch):
    # the benchmark counts terms built by replacing this hook on the class
    seen = []
    check = Term.__post_init__

    def counted(term):
        seen.append(term)
        check(term)

    monkeypatch.setattr(Term, "__post_init__", counted)
    term = Term(5, -1)
    assert seen == [term]
    with pytest.raises(ValueError):
        Term(5, 0)
    assert len(seen) == 2
    state = expand_product([bell_terms(A_P, (1, 2)), bell_terms(B_M, (3, 4))])
    # two terms per ket, then the four products, which are canonical as built
    assert len(seen) == 2 + 2 + 2 + 4
    assert seen[-4:] == list(state.terms)


def test_bit_order_matches_qcore_index_on_all_six_qubit_patterns():
    # oracles.bits_to_index is the independent oracle for the first-qubit-MSB
    # order that integer patterns, rendering and the dense bridge share.
    qubits = (1, 2, 3, 4, 5, 6)
    for pattern in itertools.product((0, 1), repeat=6):
        key = "".join(str(b) for b in pattern)
        index = bits_to_index(pattern)
        for sign in (1, -1):
            s = SymbolicState.from_terms(qubits, [Term(int(key, 2), sign)])
            assert s.term_signs() == ((key, sign),)
            vec = to_statevector(s)
            assert vec == DenseState(((index, sign),), 0, 6)
            assert from_statevector(vec, qubits) == s


def test_empty_bell_product_expr_expands_to_cancelled_state():
    expr = BellProductExpr(((2, 5), (3, 4)), ())
    assert expr.render() == "0"
    s = expr.expand()
    assert s.qubits == (2, 3, 4, 5)
    assert s.terms == ()
    assert s.render() == "0"


def _pipeline_states():
    """Every non-empty 4- and 6-qubit state of the pipeline, over all 512 tuples."""
    from ghzshare.protocol import make_announcements
    from ghzshare.recon import reconstruct_trace

    for label in LABELS:
        for position in (1, 6):
            for o1, o2, o3 in itertools.product(BELL_OUTCOMES, repeat=3):
                trace = reconstruct_trace(make_announcements(o2, o3, label, o1, position))
                for s in (trace.expansion, trace.kept_mid, trace.attached, trace.final_kept):
                    if s is not None and s.terms:
                        yield s


def test_statevector_bridge_round_trips_pipeline_states():
    seen = 0
    for s in _pipeline_states():
        # Dense vectors are unit norm, so compare at the unit-norm exponent.
        s = SymbolicState(s.qubits, s.terms, len(s.terms).bit_length() - 1)
        assert from_statevector(to_statevector(s), s.qubits) == s
        seen += 1
    assert seen > 512


def test_statevector_bridge_round_trips_encoded_states():
    for label in LABELS:
        for gate in GATES:
            for position in (1, 6):
                encoded = apply_gate(prepare_state(label), gate, position)
                s = from_statevector(encoded, (1, 2, 3, 4, 5, 6))
                assert s.norm_exponent == 2 and len(s.terms) == 4
                assert to_statevector(s) == encoded


def test_from_statevector_reads_the_magnitude_into_the_norm_exponent():
    # 2/sqrt(2)**4 = 1/2 = 1/sqrt(2)**2 per term, unnormalized vectors included
    vec = DenseState(((0, 2), (3, -2)), 4, 2)
    assert from_statevector(vec, (1, 2)) == state_of((1, 2), [("00", 1), ("11", -1)], 2)
    vec = DenseState(((0, 1), (3, 1)), 4, 2)
    assert from_statevector(vec, (1, 2)).norm_exponent == 4


def test_from_statevector_rejects_bad_vectors():
    with pytest.raises(ValueError):
        from_statevector(DenseState((), 0, 4), (2, 3, 4, 5))
    with pytest.raises(ValueError):
        from_statevector(DenseState(((0, 1), (1, 2)), 0, 2), (1, 2))
    with pytest.raises(ValueError):
        from_statevector(DenseState(((0, 1),), 0, 1), (1, 2))
    with pytest.raises(NotDyadic):
        from_statevector(DenseState(((0, 3), (1, 3)), 0, 1), (1,))


@pytest.mark.parametrize(
    "signed_bits, k, merged, exponent",
    [
        # nothing merges, in order or out of it: the exponent is the one given
        ([("00", 1), ("11", -1)], 1, [("00", 1), ("11", -1)], 1),
        ([("11", -1), ("00", 1)], 1, [("00", 1), ("11", -1)], 1),
        # each pattern twice: 2 * 2**(-3/2) is 2**(-1/2)
        ([("00", 1), ("11", -1), ("00", 1), ("11", -1)], 3, [("00", 1), ("11", -1)], 1),
        # twice after a cancelling pair, and four times
        ([("01", 1), ("10", 1), ("01", 1), ("10", -1)], 2, [("01", 1)], 0),
        ([("01", -1)] * 4 + [("10", 1)] * 4, 4, [("01", -1), ("10", 1)], 0),
    ],
)
def test_merged_terms_carry_their_multiplicity_into_the_norm_exponent(
    signed_bits, k, merged, exponent
):
    s = state_of((2, 3), signed_bits, k)
    assert s.term_signs() == tuple(merged)
    assert s.norm_exponent == exponent


def test_expand_pins_the_norm_exponent_of_its_sum():
    pairing = ((2, 3), (4, 5))
    # a+a+ + a-a-: |0000> and |1111> double, |0011> and |1100> cancel
    doubled = BellProductExpr(pairing, ((A_P, A_P, 1), (A_M, A_M, 1))).expand()
    assert doubled.term_signs() == (("0000", 1), ("1111", 1))
    assert doubled.norm_exponent == 0
    flipped = BellProductExpr(pairing, ((A_P, A_P, 1), (A_M, A_M, -1))).expand()
    assert flipped.term_signs() == (("0011", 1), ("1100", 1))
    assert flipped.norm_exponent == 0
    # one product: four terms at 1/2 each, nothing merges
    single = BellProductExpr(pairing, ((A_P, B_M, 1),)).expand()
    assert single == expand_product([bell_terms(A_P, (2, 3)), bell_terms(B_M, (4, 5))])
    assert len(single.terms) == 4
    assert single.norm_exponent == 2


def test_canonical_order_is_ascending_and_stable():
    shuffled = state_of((2, 3), [("11", -1), ("00", 1)])
    ordered = state_of((2, 3), [("00", 1), ("11", -1)])
    assert shuffled == ordered
    assert to_statevector(shuffled) == to_statevector(ordered)


@pytest.mark.parametrize("o1", BELL_OUTCOMES)
@pytest.mark.parametrize("o2", BELL_OUTCOMES)
def test_symbolic_products_are_measurement_eigenstates(o1, o2):
    # The dense form of a symbolic Bell-product expansion must be an exact
    # eigenstate of the corresponding pair measurements.
    for o3 in BELL_OUTCOMES:
        full = expand_product(
            [bell_terms(o1, (1, 6)), bell_terms(o2, (2, 5)), bell_terms(o3, (3, 4))]
        )
        dense = to_statevector(full)
        assert sum(amp * amp for _, amp in dense.amplitudes) == 2**dense.exponent
        for pair, outcome in (((1, 6), o1), ((2, 5), o2), ((3, 4), o3)):
            probs = bell_probabilities(dense, pair)
            assert probs[outcome][0] == 1
            post = probs[outcome][1]
            assert post is not None and global_phase_equal(post, dense)


def test_merged_terms_of_unequal_or_odd_multiplicity_are_refused():
    with pytest.raises(SymexactError, match=r"^non-uniform term multiplicities \[1, 2\]$"):
        SymbolicState.from_terms((1, 2), [Term(1, 1), Term(1, 1), Term(2, 1)])
    with pytest.raises(SymexactError, match="^multiplicity 3 is not a power of two$"):
        SymbolicState.from_terms((1, 2), [Term(1, 1)] * 3)


def test_equal_terms_over_different_qubits_are_different_states():
    assert bell_terms(A_P, (1, 6)).terms == bell_terms(A_P, (2, 5)).terms
    assert not equal_up_to_global_sign(bell_terms(A_P, (1, 6)), bell_terms(A_P, (2, 5)))
    assert equal_up_to_global_sign(bell_terms(A_P, (2, 5)), bell_terms(A_P, (2, 5)))


def test_bell_decompose_refuses_a_foreign_layout_a_cancelled_state_and_uneven_overlaps():
    pairing = ((2, 3), (4, 5))
    with pytest.raises(ValueError, match=r"^state over \(1, 2, 3, 4\) does not match pairing"):
        bell_decompose(state_of((1, 2, 3, 4), [("0000", 1), ("1111", 1)], 1), pairing)
    with pytest.raises(EmptyState):
        bell_decompose(state_of((2, 3, 4, 5), [("0000", 1), ("0000", -1)]), pairing)
    uneven = state_of((2, 3, 4, 5), [("0000", 1), ("0001", 1), ("0010", 1)])
    with pytest.raises(NotBellExpressible, match="coefficients are not uniform"):
        bell_decompose(uneven, pairing)
    # a list pairing, or a list pair, decomposes as its tuple form
    product = expand_product([bell_terms(A_P, (2, 3)), bell_terms(B_M, (4, 5))])
    expected = bell_decompose(product, pairing)
    for listed in ([(2, 3), (4, 5)], ((2, 3), [4, 5])):
        assert bell_decompose(product, listed) == expected
    # what is no two pairs is named, not unpacked
    for bad in (None, 7, ((2, 3),)):
        message = re.escape(f"pairing must be two qubit pairs, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            bell_decompose(product, bad)


def test_a_term_has_no_per_instance_dict():
    assert not hasattr(Term(5, -1), "__dict__")


# Each exported call that takes a state, keyed by (function, argument slot),
# with the value under test in that slot and valid values in the others.
_DENSE = prepare_state(StateLabel.A)
_PART = bell_terms(A_P, (2, 3))
NON_STATE_SLOTS = {
    ("apply_gate", "state"): lambda bad: apply_gate(bad, PauliGate.X, 1),
    ("bell_probabilities", "state"): lambda bad: bell_probabilities(bad, (1, 6)),
    ("measure_bell", "state"): lambda bad: measure_bell(bad, (1, 6), random.Random(0)),
    ("partial_inner", "state"): lambda bad: partial_inner(bad, (1, 6), A_P),
    ("global_phase_equal", "a"): lambda bad: global_phase_equal(bad, _DENSE),
    ("global_phase_equal", "b"): lambda bad: global_phase_equal(_DENSE, bad),
    ("bell_decompose", "state"): lambda bad: bell_decompose(bad, ((2, 3), (4, 5))),
    ("expand_product", "part"): lambda bad: expand_product([_PART, bad]),
}
NON_STATES = [None, "x", 7, object(), (1, 2, 3)]


@pytest.mark.parametrize("bad", NON_STATES, ids=lambda bad: type(bad).__name__)
@pytest.mark.parametrize(
    "call", list(NON_STATE_SLOTS.values()), ids=[f"{f}-{slot}" for f, slot in NON_STATE_SLOTS]
)
def test_a_non_state_argument_raises_value_error_naming_its_type(call, bad):
    with pytest.raises(ValueError, match=rf"\bgot\b.*\b{type(bad).__name__}\b"):
        call(bad)


@pytest.mark.parametrize("bad", [None, 7, object()], ids=lambda bad: type(bad).__name__)
def test_expand_product_names_parts_that_are_no_iterable(bad):
    message = f"parts must be a sequence of SymbolicStates, got {type(bad).__name__}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        expand_product(bad)
