"""Exact dense engine tests: preparation, gates, Bell measurement."""

import functools
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ghzshare import qcore
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
    check_pair,
    global_phase_equal,
    measure_bell,
    normalized,
    outcome_from_ascii,
    partial_inner,
    prepare_state,
)

from oracles import bell_gather, bits_to_index

A_P, A_M, B_P, B_M = BELL_OUTCOMES


def amplitudes_of(state):
    """Nonzero amplitudes as floats, keyed by basis index (exact for even exponents)."""
    return {i: a * 2.0 ** (-state.exponent / 2) for i, a in state.amplitudes}


def squared_norm(state):
    return Fraction(sum(a * a for _, a in state.amplitudes), 2**state.exponent)


def negated(state):
    return state._replace(amplitudes=tuple((i, -a) for i, a in state.amplitudes))


def test_prepare_a_support():
    state = prepare_state(StateLabel.A)
    expected = {int(s, 2): 0.5 for s in ("000000", "000111", "111000", "111111")}
    assert amplitudes_of(state) == expected


def test_prepare_b_support():
    state = prepare_state(StateLabel.B)
    expected = {int(s, 2): 0.5 for s in ("001001", "001110", "110001", "110110")}
    assert amplitudes_of(state) == expected


@pytest.mark.parametrize("label", LABELS)
def test_prepare_normalized(label):
    state = prepare_state(label)
    assert squared_norm(state) == 1
    assert len(state.amplitudes) == 4


def test_iy_on_first_qubit_of_a():
    state = apply_gate(prepare_state(StateLabel.A), PauliGate.IY, 1)
    expected = {
        int("100000", 2): -0.5,
        int("100111", 2): -0.5,
        int("011000", 2): 0.5,
        int("011111", 2): 0.5,
    }
    assert amplitudes_of(state) == expected


def test_z_on_first_qubit_of_a():
    state = apply_gate(prepare_state(StateLabel.A), PauliGate.Z, 1)
    expected = {
        int("000000", 2): 0.5,
        int("000111", 2): 0.5,
        int("111000", 2): -0.5,
        int("111111", 2): -0.5,
    }
    assert amplitudes_of(state) == expected


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_identity_gate_is_identity(label, q):
    state = prepare_state(label)
    assert apply_gate(state, PauliGate.I, q) == state


@pytest.mark.parametrize("gate", [PauliGate.X, PauliGate.Z])
@pytest.mark.parametrize("q", [1, 4, 6])
def test_x_and_z_are_involutions(gate, q):
    state = apply_gate(prepare_state(StateLabel.C), PauliGate.IY, 2)
    twice = apply_gate(apply_gate(state, gate, q), gate, q)
    assert twice == state


@pytest.mark.parametrize("q", [1, 3, 6])
def test_iy_squares_to_minus_identity(q):
    state = prepare_state(StateLabel.D)
    twice = apply_gate(apply_gate(state, PauliGate.IY, q), PauliGate.IY, q)
    assert twice == negated(state)
    assert global_phase_equal(twice, state)
    four = apply_gate(apply_gate(twice, PauliGate.IY, q), PauliGate.IY, q)
    assert four == state


@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("q", [1, 2, 5, 6])
def test_gates_preserve_norm(gate, q):
    state = apply_gate(prepare_state(StateLabel.B), PauliGate.X, 3)
    assert squared_norm(apply_gate(state, gate, q)) == 1


@pytest.mark.parametrize("label", LABELS)
def test_uniform_bell_probabilities_on_p1_pair(label):
    probs = bell_probabilities(prepare_state(label), (1, 6))
    for outcome in BELL_OUTCOMES:
        p, post = probs[outcome]
        assert p == Fraction(1, 4)
        assert post is not None and squared_norm(post) == 1


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("pair", [(1, 6), (2, 5), (3, 4)])
def test_probabilities_sum_to_one(label, pair):
    state = apply_gate(prepare_state(label), PauliGate.IY, 6)
    probs = bell_probabilities(state, pair)
    assert sum(p for p, _ in probs.values()) == 1


def test_collapse_of_iy_run_matches_worked_example():
    # iY at qubit 1 on state A, then b+ on (1,6): the (2,3,4,5) factor is
    # -|0000> + |1111> (the -a+a- - a-a+ Bell product in the (2,3),(4,5) pairing).
    state = apply_gate(prepare_state(StateLabel.A), PauliGate.IY, 1)
    rest = normalized(partial_inner(state, (1, 6), B_P))
    assert rest == DenseState(((0b0000, -1), (0b1111, 1)), 1, 4)


def test_eigenstate_measures_with_certainty():
    # a+ on (1,6) tensored with |0000> on (2,3,4,5)
    state = DenseState(
        ((bits_to_index((0, 0, 0, 0, 0, 0)), 1), (bits_to_index((1, 0, 0, 0, 0, 1)), 1)), 1
    )
    probs = bell_probabilities(state, (1, 6))
    assert probs[A_P][0] == 1
    for outcome in (A_M, B_P, B_M):
        assert probs[outcome] == (0, None)
    outcome, post = measure_bell(state, (1, 6), random.Random(99))
    assert outcome is A_P
    assert post == state


def test_measure_bell_deterministic_per_seed():
    state = prepare_state(StateLabel.A)
    first = measure_bell(state, (1, 6), random.Random(1234))
    second = measure_bell(state, (1, 6), random.Random(1234))
    assert first[0] is second[0]
    assert first[1] == second[1]


def test_measure_bell_takes_a_list_pair_as_the_tuple_it_holds():
    state = prepare_state(StateLabel.A)
    for seed in range(8):
        listed = measure_bell(state, [1, 6], random.Random(seed))
        assert listed == measure_bell(state, (1, 6), random.Random(seed))


@pytest.mark.parametrize("rng", [object(), None, 7], ids=lambda rng: type(rng).__name__)
def test_measure_bell_refuses_an_rng_with_no_random(rng):
    message = re.escape(f"rng must have a random() method, got {type(rng).__name__}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        measure_bell(prepare_state(StateLabel.A), (1, 6), rng)


def test_a_pair_of_one_qubit_twice_is_named():
    for pair in ((2, 2), [6, 6]):
        with pytest.raises(ValueError, match="two distinct qubits"):
            check_pair(pair)


def test_measure_bell_frequencies_within_four_sigma():
    state = prepare_state(StateLabel.A)
    rng = random.Random(2024)
    counts = {o: 0 for o in BELL_OUTCOMES}
    n = 4096
    for _ in range(n):
        outcome, _ = measure_bell(state, (1, 6), rng)
        counts[outcome] += 1
    bound = 4 * math.sqrt(n * 0.25 * 0.75)
    for outcome in BELL_OUTCOMES:
        assert abs(counts[outcome] - n / 4) <= bound


class FixedDraw:
    """An rng whose random() returns one fixed float."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_measure_bell_compares_the_draw_exactly_at_each_boundary():
    # four outcomes of 1/4 each: a draw of exactly k/4 selects outcome k, and
    # the float just below it selects outcome k - 1
    state = prepare_state(StateLabel.A)
    for k in range(4):
        below = math.nextafter(k / 4, -1.0) if k else 0.0
        assert measure_bell(state, (1, 6), FixedDraw(k / 4))[0] is BELL_OUTCOMES[k]
        assert measure_bell(state, (1, 6), FixedDraw(below))[0] is BELL_OUTCOMES[max(k - 1, 0)]
    top = math.nextafter(1.0, 0.0)
    assert measure_bell(state, (1, 6), FixedDraw(top))[0] is B_M


def test_measure_bell_never_samples_an_impossible_outcome():
    # a state with one possible outcome: every draw selects it, the empty
    # intervals of the impossible outcomes before it included
    state = DenseState(((0b000000, 1), (0b100001, 1), (0b000010, 1), (0b100011, 1)), 2)
    assert [p for p, _ in bell_probabilities(state, (1, 6)).values()] == [1, 0, 0, 0]
    state = apply_gate(state, PauliGate.X, 6)
    probs = bell_probabilities(state, (1, 6))
    assert [p for p, _ in probs.values()] == [0, 0, 1, 0]
    for draw in (0.0, 0.5, math.nextafter(1.0, 0.0)):
        assert measure_bell(state, (1, 6), FixedDraw(draw))[0] is B_P
    # a draw outside [0, 1) is refused: here it would select a+ or b-, which
    # cannot occur, and on prepare_state(A) an outcome its weight does not give it
    outside = (-0.5, -1e-300, 1.0, 1.5, 7.0, math.inf, math.nan, "x", None)
    for draw, given in itertools.product(outside, (state, prepare_state(StateLabel.A))):
        message = re.escape(f"rng.random() must return a number in [0, 1), got {draw!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            measure_bell(given, (1, 6), FixedDraw(draw))


@pytest.mark.parametrize("label", LABELS)
def test_remaining_pairs_stay_bell_correlated(label):
    # After measuring (1,6) of a prepared state, measuring (2,3) pins (4,5).
    for _, post in bell_probabilities(prepare_state(label), (1, 6)).values():
        assert post is not None
        for _, post23 in bell_probabilities(post, (2, 3)).items():
            p23, s23 = post23
            if s23 is None:
                continue
            probs45 = [p for p, _ in bell_probabilities(s23, (4, 5)).values()]
            assert sorted(probs45) == [0, 0, 0, 1]


def _joint_distribution(state, order):
    dist = {}

    def rec(s, acc, prob):
        if len(acc) == len(order):
            dist[tuple(sorted(acc.items()))] = prob
            return
        pair = order[len(acc)]
        for outcome, (p, post) in bell_probabilities(s, pair).items():
            if post is None:
                continue
            rec(post, {**acc, pair: outcome.ascii}, prob * p)

    rec(state, {}, Fraction(1))
    return dist


@pytest.mark.parametrize(
    "label,gate,position",
    [(StateLabel.A, PauliGate.IY, 1), (StateLabel.C, PauliGate.Z, 6)],
)
def test_measurement_order_independence(label, gate, position):
    state = apply_gate(prepare_state(label), gate, position)
    orders = [
        [(1, 6), (2, 5), (3, 4)],
        [(2, 5), (3, 4), (1, 6)],
        [(3, 4), (1, 6), (2, 5)],
    ]
    base = _joint_distribution(state, orders[0])
    for order in orders[1:]:
        assert _joint_distribution(state, order) == base


def test_global_phase_equal_basics():
    v = prepare_state(StateLabel.A)
    assert global_phase_equal(v, negated(v))
    assert not global_phase_equal(v, prepare_state(StateLabel.B))
    e0 = DenseState(((0, 1),), 0)
    e63 = DenseState(((63, 1),), 0)
    assert not global_phase_equal(e0, e63)
    # the same ints over four qubits are another vector
    assert not global_phase_equal(e0, e0._replace(n_qubits=4))
    # one sign flipped is not a global phase
    flipped = v._replace(amplitudes=((0, -1),) + v.amplitudes[1:])
    assert not global_phase_equal(v, flipped)


# ---------------------------------------------------------------------------
# exactness: no rounding anywhere, and a typed error where no exact form exists


def test_state_with_unequal_magnitudes_raises_not_dyadic():
    # (2|000000> + |000011> + |000100> + |001000> + |001100>) / sqrt(8) is a unit
    # vector, but a+ on (5,6) leaves rest ints (3, 1, 1, 1): no power of sqrt2
    # normalizes them
    state = DenseState(
        ((0b000000, 2), (0b000011, 1), (0b000100, 1), (0b001000, 1), (0b001100, 1)), 3
    )
    assert squared_norm(state) == 1
    with pytest.raises(NotDyadic):
        bell_probabilities(state, (5, 6))
    with pytest.raises(NotDyadic):
        normalized(partial_inner(state, (5, 6), A_P))
    # a+ weighs 12/16 and a- 4/16: a draw that lands in a- succeeds
    assert measure_bell(state, (5, 6), FixedDraw(0.9))[0] is A_M
    with pytest.raises(NotDyadic):
        measure_bell(state, (5, 6), FixedDraw(0.5))


def test_normalized_rejects_vectors_with_no_exact_form():
    with pytest.raises(NotDyadic):
        normalized(DenseState(((0, 1), (1, 2)), 0, 1))
    with pytest.raises(ValueError):
        normalized(DenseState((), 0, 4))
    # a common odd factor divides out: (3, -3) is the unit vector (1, -1)/sqrt2
    assert normalized(DenseState(((0, 3), (1, -3)), 0, 1)) == DenseState(((0, 1), (1, -1)), 1, 1)


def test_non_unit_and_wrong_width_states_are_rejected():
    # (|0> + |63>) with exponent 2 has squared norm 1/2
    half = DenseState(((0, 1), (63, 1)), 2)
    with pytest.raises(ValueError, match="unit"):
        bell_probabilities(half, (1, 6))
    with pytest.raises(ValueError, match="unit"):
        measure_bell(half, (1, 6), random.Random(0))
    four_qubits = DenseState(((0, 1),), 0, 4)
    with pytest.raises(ValueError, match="6-qubit"):
        apply_gate(four_qubits, PauliGate.X, 1)
    with pytest.raises(ValueError, match="6-qubit"):
        bell_probabilities(four_qubits, (1, 6))


# ---------------------------------------------------------------------------
# kernel oracles: numpy slice projections and kron-built gate matrices, on the
# states' ints

ORDERED_PAIRS = [(a, b) for a in range(1, 7) for b in range(1, 7) if a != b]
REF_KETS = {
    A_P: {(0, 0): 1, (1, 1): 1},
    A_M: {(0, 0): 1, (1, 1): -1},
    B_P: {(0, 1): 1, (1, 0): 1},
    B_M: {(0, 1): 1, (1, 0): -1},
}
REF_MATRICES = {
    PauliGate.I: np.array([[1, 0], [0, 1]]),
    PauliGate.X: np.array([[0, 1], [1, 0]]),
    PauliGate.IY: np.array([[0, 1], [-1, 0]]),
    PauliGate.Z: np.array([[1, 0], [0, -1]]),
}


def ints(state):
    """The state's ints as a dense numpy vector over its 2**n_qubits basis states."""
    vec = np.zeros(2**state.n_qubits, dtype=np.int64)
    for index, amp in state.amplitudes:
        vec[index] = amp
    return vec


def from_ints(vec, exponent, n_qubits=6):
    return DenseState(
        tuple((int(i), int(vec[i])) for i in np.flatnonzero(vec)), exponent, n_qubits
    )


def ref_slice(pair, ket):
    idx = [slice(None)] * 6
    idx[pair[0] - 1], idx[pair[1] - 1] = ket
    return tuple(idx)


def ref_projection(state, pair, outcome):
    """<outcome| on the pair by slicing the (2,)*6 tensor of ints, ket by ket.

    The result is in units of 2**(-(exponent + 1)/2).
    """
    psi = ints(state).reshape((2,) * 6)
    rest = np.zeros((2,) * 4, dtype=np.int64)
    for ket, sign in REF_KETS[outcome].items():
        rest = rest + sign * psi[ref_slice(pair, ket)]
    return rest


def ref_bell(state, pair):
    results = {}
    for outcome in BELL_OUTCOMES:
        rest = ref_projection(state, pair, outcome)
        weight = int(np.sum(rest * rest))
        prob = Fraction(weight, 2 ** (state.exponent + 1))
        if weight == 0:
            results[outcome] = (prob, None)
            continue
        post = np.zeros((2,) * 6, dtype=np.int64)
        for ket, sign in REF_KETS[outcome].items():
            post[ref_slice(pair, ket)] = sign * rest
        post = post.reshape(64) // np.gcd.reduce(post.reshape(64))
        squares = int(np.sum(post * post))
        assert squares & (squares - 1) == 0, "reachable post-states are dyadic"
        results[outcome] = (prob, from_ints(post, squares.bit_length() - 1))
    return results


@functools.cache
def ref_gate_matrix(gate, q):
    factors = [np.eye(2, dtype=np.int64)] * 6
    factors[q - 1] = REF_MATRICES[gate]
    return functools.reduce(np.kron, factors)


@pytest.fixture(scope="module")
def reachable_states():
    """Every state the (1,6) -> (2,5) -> (3,4) walk reaches from the 32 encoded states."""
    states = {}

    def visit(state, pairs):
        states.setdefault(state, None)
        if pairs:
            for _, post in ref_bell(state, pairs[0]).values():
                if post is not None:
                    visit(post, pairs[1:])

    for label in LABELS:
        for gate in GATES:
            for position in (1, 6):
                prepared = prepare_state(label)
                encoded = from_ints(ref_gate_matrix(gate, position) @ ints(prepared), 2)
                visit(encoded, [(1, 6), (2, 5), (3, 4)])
    return list(states)


def test_reachable_states_cover_the_walk(reachable_states):
    # 32 encoded states; the distinct post-measurement states after each pair
    assert len(reachable_states) == 224


def test_bell_probabilities_match_slice_reference(reachable_states):
    impossible = 0
    for state in reachable_states:
        for pair in ORDERED_PAIRS:
            got = bell_probabilities(state, pair)
            want = ref_bell(state, pair)
            assert list(got) == list(want)
            assert got == want, pair
            impossible += sum(post is None for _, post in want.values())
    assert impossible > 0


def test_gather_probabilities_are_exact_quarters(reachable_states):
    allowed = {Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)}
    seen = set()
    for state in reachable_states:
        for pair in ORDERED_PAIRS:
            probs = [p for p, _ in bell_probabilities(state, pair).values()]
            assert all(type(p) is Fraction for p in probs)
            assert set(probs) <= allowed, (state, pair)
            assert sum(probs) == 1
            seen.update(probs)
    assert seen == allowed


def test_partial_inner_matches_slice_reference(reachable_states):
    for state in reachable_states:
        for pair in ORDERED_PAIRS:
            for outcome in BELL_OUTCOMES:
                got = partial_inner(state, pair, outcome)
                assert got.n_qubits == 4
                want = ref_projection(state, pair, outcome).reshape(-1)
                # want is in units of 2**(-(exponent + 1)/2); got may have halved its ints
                halvings, odd = divmod(state.exponent + 1 - got.exponent, 2)
                assert odd == 0 and halvings >= 0
                assert np.array_equal(ints(got) << halvings, want)


def test_partial_inner_of_an_outcome_the_state_cannot_show_is_the_zero_vector():
    # A's (2,3) pair is always parallel, so b+ projects every amplitude away;
    # the exponent is the state's plus one, with no halving
    assert partial_inner(prepare_state(StateLabel.A), (2, 3), B_P) == DenseState((), 3, 4)


def test_apply_gate_matches_kron_matrix(reachable_states):
    for state in reachable_states:
        for gate in GATES:
            for q in range(1, 7):
                want = from_ints(ref_gate_matrix(gate, q) @ ints(state), state.exponent)
                assert apply_gate(state, gate, q) == want, (gate, q)


def test_list_pair_and_bad_pairs():
    state = apply_gate(prepare_state(StateLabel.C), PauliGate.IY, 6)
    assert bell_probabilities(state, [1, 6]) == bell_probabilities(state, (1, 6))
    assert partial_inner(state, [1, 6], A_P) == partial_inner(state, (1, 6), A_P)
    for bad in [(1, 1), (0, 6), (1, 7), (1,), (1, 2, 3), None, 7, 1.5]:
        with pytest.raises(ValueError):
            bell_probabilities(state, bad)
        with pytest.raises(ValueError):
            partial_inner(state, bad, A_P)
        with pytest.raises(ValueError):
            measure_bell(state, bad, random.Random(0))
    for bad in ["a+", None, ["a+"]]:
        message = f"^outcome must be a BellOutcome, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            partial_inner(state, (1, 6), bad)
    # a float qubit equals and hashes like an int, so it must not reach a
    # table cached for the int: it fails whether or not that table exists
    with pytest.raises(TypeError):
        bell_probabilities(state, (1.0, 6))
    with pytest.raises(TypeError):
        partial_inner(state, (1, 6.0), A_P)
    with pytest.raises(TypeError):
        apply_gate(state, PauliGate.X, 6.0)


def test_a_gate_or_label_given_as_text_fails_typed_cached_or_not():
    # a non-enum value raises ValueError naming it, not KeyError, AttributeError or TypeError
    state = prepare_state(StateLabel.C)
    qcore._prepare_state.cache_clear()
    for _ in range(2):
        # text, and unhashable values that no cache can take as a key
        for gate, label in [("X", "A"), (["X"], ["X"]), ({"A"}, {"A"}), ({}, {})]:
            message = re.escape(f"gate must be a PauliGate, got {gate!r}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                apply_gate(state, gate, 1)
            message = re.escape(f"state label must be a StateLabel, got {label!r}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                prepare_state(label)
        # the second round runs with the preparation table cached; a gate caches nothing
        apply_gate(state, PauliGate.X, 1)
        prepare_state(StateLabel.A)


def test_bool_qubits_are_rejected_cached_or_not():
    # True == 1 and hashes alike, so a bool would otherwise run as qubit 1
    state = apply_gate(prepare_state(StateLabel.C), PauliGate.IY, 6)
    qcore._bell_tables.cache_clear()
    for _ in range(2):
        for qubit in (True, False):
            with pytest.raises(ValueError):
                apply_gate(state, PauliGate.X, qubit)
        for pair in [(True, 6), (6, True), (False, 6)]:
            with pytest.raises(ValueError):
                bell_probabilities(state, pair)
            with pytest.raises(ValueError):
                partial_inner(state, pair, A_P)
        # the second round runs with the Bell table for (1, 6) cached; a gate caches nothing
        apply_gate(state, PauliGate.X, 1)
        bell_probabilities(state, (1, 6))
        bell_probabilities(state, (6, 1))
    assert check_pair([1, 6]) == (1, 6)
    assert all(type(q) is int for q in check_pair((np.int64(1), 6)))


def _only_tuples_and_ints(value):
    if isinstance(value, tuple):
        return all(_only_tuples_and_ints(v) for v in value)
    return type(value) is int


def test_bell_gather_tables_match_the_per_index_derivation():
    for pair in ORDERED_PAIRS:
        assert qcore._bell_tables(pair)[0] == bell_gather(pair), pair


def test_outcome_from_ascii_reads_each_outcome_and_refuses_the_rest():
    for outcome in BELL_OUTCOMES:
        assert outcome_from_ascii(outcome.ascii) is outcome
    # unhashable text is refused as unknown text is, not with a TypeError
    for text in ["a", "A+", "a+ ", "", None, 1, A_P, ["a+"], {"a+": 1}]:
        with pytest.raises(ValueError, match=f"^unknown Bell outcome {re.escape(repr(text))}$"):
            outcome_from_ascii(text)


def test_states_and_cached_tables_are_immutable():
    tables = [prepare_state(label) for label in LABELS]
    tables += [apply_gate(tables[0], gate, q) for gate in GATES for q in range(1, 7)]
    tables += [qcore._bell_tables(pair) for pair in ORDERED_PAIRS]
    for table in tables:
        assert _only_tuples_and_ints(table)
    state = prepare_state(StateLabel.B)
    with pytest.raises(AttributeError):
        state.amplitudes = ()
    post = bell_probabilities(state, (2, 5))[A_P][1]
    assert isinstance(post, DenseState) and _only_tuples_and_ints(post)
