"""Exhaustive verification of the protocol and its security scenarios.

Branch enumeration chains exact Born probabilities instead of sampling,
so the honest-run check covers every positive-probability outcome triple
of every configuration.  Those branches, with their oracle states and their
no-signalling verdicts, are a read-only table filled once per
configuration: every check of an honest configuration reads it.  Every
reconstruction is a trace, read from recon's decode table, that ends in its
result or its rejection, so only the comparisons of its stages with the oracle
states run again on each call.
Every probability, P1-conditional collapse and consistent gate a
check reads comes through one view of walked branches, the table's or one
walk of the state Eve modified: the branches that show the outcomes a party
has heard.  A scenario reconstructs only the tuples whose deduction or count
it prints.
The collapse table and the five adversary scenarios are scripted,
deterministic experiments whose reports carry expected-vs-observed values
for each assertion.  The oracle forms of a P1-conditional collapse, its terms
and its Bell products under both pairings, rendered, are a second harness
table, filled once per (configuration, P1 outcome) that the collapse table
or lie-state prints.  So a warm audit reads its branches, reconstructions and
collapse forms from tables; what runs on every call is each reconstruction's
lookup, each comparison of a stage with an oracle state, each diff of the
printed table against the oracle forms, and each scenario's assertions.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .protocol import (
    ENCODING_POSITIONS,
    P1_PAIR,
    P2_PAIR,
    P3_PAIR,
    PAIRING_2534,
    GateAction,
    decode_secret,
    make_announcements,
)
from .qcore import (
    BELL_OUTCOMES,
    GATES,
    LABELS,
    BellOutcome,
    DenseState,
    PauliGate,
    StateLabel,
    apply_gate,
    bell_probabilities,
    global_phase_equal,
    normalized,
    partial_inner,
    prepare_state,
)
from .recon import (
    ALL_QUBITS,
    MIDDLE_QUBITS,
    NoMatch,
    PipelineTrace,
    reconstruct_trace,
)
from .symexact import (
    BellPair,
    BellProductExpr,
    SymbolicState,
    bell_decompose,
    bell_terms,
    expand_product,
    from_statevector,
    to_statevector,
)

if TYPE_CHECKING:
    # read in annotations only: with decimal and numbers it costs every cold
    # CLI command milliseconds
    from fractions import Fraction

PAIRING_2345: tuple[BellPair, BellPair] = ((2, 3), (4, 5))

A_P, A_M, B_P, B_M = BELL_OUTCOMES


# ---------------------------------------------------------------------------
# branch enumeration and exhaustive verification


class Branch(NamedTuple):
    """One positive-probability outcome triple with its oracle states.

    mid_after_p1 and mid_after_p3 are the normalized (2,3,4,5) states left
    when (1,6) is found in o1, after P1's measurement and after all three.
    no_signalling is whether the state after all three is the product of the
    three announced Bell kets, up to phase: decided once, as the branch is
    walked, so that state is not kept.
    """

    o1: BellOutcome
    o2: BellOutcome
    o3: BellOutcome
    probability: Fraction
    after_p1: DenseState
    mid_after_p1: DenseState
    mid_after_p3: DenseState
    no_signalling: bool


class BranchRecord(NamedTuple):
    label: str
    gate: str
    position: int
    secret: str
    p1: str
    p2: str
    p3: str
    probability: Fraction
    reconstructed_action: Optional[str]
    reconstructed_secret: Optional[str]
    tamper: Optional[str]
    passed: bool
    failures: tuple[str, ...]

    def to_dict(self) -> dict:
        probability = self.probability
        return {
            "label": self.label,
            "gate": self.gate,
            "position": self.position,
            "secret": self.secret,
            "p1": self.p1,
            "p2": self.p2,
            "p3": self.p3,
            # what float(Fraction) computes, without its Python frames
            "probability": probability.numerator / probability.denominator,
            "reconstructed_action": self.reconstructed_action,
            "reconstructed_secret": self.reconstructed_secret,
            "tamper": self.tamper,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def configurations() -> Iterator[tuple[StateLabel, PauliGate, int]]:
    return itertools.product(LABELS, GATES, ENCODING_POSITIONS)


def enumerate_branches(state: DenseState) -> Iterator[Branch]:
    """All positive-probability (P1,P2,P3) outcome triples of one state.

    (1,6), (2,5) and (3,4) are measured in turn, following every outcome
    that can occur.
    """
    for o1, (prob1, s1) in bell_probabilities(state, P1_PAIR).items():
        if s1 is None:
            continue
        mid1 = _collapse(s1, o1)
        for o2, (prob2, s2) in bell_probabilities(s1, P2_PAIR).items():
            if s2 is None:
                continue
            prob12 = prob1 * prob2
            for o3, (prob3, s3) in bell_probabilities(s2, P3_PAIR).items():
                if s3 is not None:
                    mid3 = _collapse(s3, o1)
                    no_signalling = global_phase_equal(_announced_product(o1, o2, o3), s3)
                    yield Branch(o1, o2, o3, prob12 * prob3, s1, mid1, mid3, no_signalling)


def _encoded(label: StateLabel, gate: PauliGate, position: int) -> DenseState:
    """The dealer's state after encoding the gate at the position."""
    return apply_gate(prepare_state(label), gate, position)


def _collapse(state: DenseState, o1: BellOutcome) -> DenseState:
    """The normalized (2,3,4,5) state left when (1,6) is found in outcome o1."""
    return normalized(partial_inner(state, P1_PAIR, o1))


@functools.cache
def _branches(label: StateLabel, gate: PauliGate, position: int) -> tuple[Branch, ...]:
    """The honest branches of one configuration: 32 keys, filled on first use."""
    return tuple(enumerate_branches(_encoded(label, gate, position)))


def _view(
    branches: Sequence[Branch],
    o1: Optional[BellOutcome] = None,
    o2: Optional[BellOutcome] = None,
    o3: Optional[BellOutcome] = None,
) -> list[Branch]:
    """The walked branches that show the given outcomes; an outcome left None is unheard.

    With the label and position public, the gates consistent with a party's
    view are those whose honest branches show it.
    """
    return [
        b
        for b in branches
        if o1 in (None, b.o1) and o2 in (None, b.o2) and o3 in (None, b.o3)
    ]


def _phase_equal(vec: DenseState, state: SymbolicState) -> bool:
    """Whether a dense vector is the symbolic state up to a global phase.

    It is global_phase_equal(vec, to_statevector(state)) without building that
    vector: to_statevector turns each term into an (index, +/-1) amplitude
    and n terms into the exponent log2(n).
    """
    terms = state.terms
    if vec.n_qubits != len(state.qubits) or vec.exponent != len(terms).bit_length() - 1:
        return False
    amplitudes = vec.amplitudes
    return amplitudes == terms or amplitudes == tuple([(bits, -sign) for bits, sign in terms])


@functools.cache
def _announced_product(o1: BellOutcome, o2: BellOutcome, o3: BellOutcome) -> DenseState:
    """Dense product of the three announced Bell kets."""
    product = expand_product(
        [bell_terms(o1, P1_PAIR), bell_terms(o2, P2_PAIR), bell_terms(o3, P3_PAIR)]
    )
    return to_statevector(product)


def _stage_failures(branch: Branch, trace: PipelineTrace) -> list[str]:
    """Symbolic pipeline stages vs oracle post-measurement states, up to phase."""
    failures = []
    # P2 x P3 expansion vs the (2,3,4,5) factor of the fully measured state
    if not _phase_equal(branch.mid_after_p3, trace.expansion):
        failures.append("expansion differs from the measured (2,3,4,5) factor")
    # kept terms vs the (2,3,4,5) collapse conditioned on P1's outcome alone
    if not _phase_equal(branch.mid_after_p1, trace.kept_mid):
        failures.append("kept terms differ from the P1-conditional collapse")
    # attached state vs the post-P1 six-qubit state
    if not _phase_equal(branch.after_p1, trace.attached):
        failures.append("attached state differs from the post-P1 state")
    # no-signaling: the final state is exactly the product of announced kets
    if not branch.no_signalling:
        failures.append("final state is not the product of the announced kets")
    return failures


def _reconstruction(
    o2: BellOutcome,
    o3: BellOutcome,
    label: StateLabel,
    o1: BellOutcome,
    position: int,
) -> PipelineTrace:
    """The trace of the reconstruction from these announcements, which may end in a rejection."""
    try:
        return reconstruct_trace(make_announcements(o2, o3, label, o1, position))
    except NoMatch as exc:
        return exc.trace


def exhaustive_verify() -> list[BranchRecord]:
    """Reconstruct every positive-probability branch of every configuration.

    What a configuration fixes, its action, secret and strings, is computed
    once for all its branches; a reconstructed action equal to the encoded
    one is written with the configuration's string.
    """
    records = []
    for label, gate, position in configurations():
        action = GateAction(gate, position)
        secret = decode_secret(action)
        rendered = action.render()
        # the members' attributes: Enum.value is a Python-level property
        fixed = (label._value_, gate._value_, position, secret)
        for branch in _branches(label, gate, position):
            run = _reconstruction(branch.o2, branch.o3, label, branch.o1, position)
            result = run.result
            if result is None:
                failures = [f"reconstruction failed: {run.rejection}"]
                deduced = (None, None, None)
            else:
                failures = []
                if result.secret != secret:
                    failures.append(f"reconstructed {result.secret!r}, encoded {secret!r}")
                if result.action == action:
                    observed = rendered
                else:
                    observed = result.action.render()
                    failures.append(f"reconstructed {observed}, encoded {rendered}")
                failures.extend(_stage_failures(branch, run))
                tamper = result.tamper.render() if result.tamper else None
                deduced = (observed, result.secret, tamper)
            outcomes = (branch.o1.ascii, branch.o2.ascii, branch.o3.ascii, branch.probability)
            # what BranchRecord's generated __new__ calls, without its Python frame
            records.append(
                tuple.__new__(
                    BranchRecord, (*fixed, *outcomes, *deduced, not failures, tuple(failures))
                )
            )
    return records


def verify_summary(records: list[BranchRecord]) -> dict:
    configs = {(r.label, r.gate, r.position) for r in records}
    return {
        "configurations": len(configs),
        "branches": len(records),
        "failures": sum(not r.passed for r in records),
    }


# ---------------------------------------------------------------------------
# collapse table


# The table as printed: per row the two Bell-product entries with their signs
# and the pair subscripts attached to each printed ket; the last Z rows print
# (2,5) and (4,5), which pair no four qubits.
_S2545 = (P2_PAIR, PAIRING_2345[1])

PRINTED_TABLE: tuple[tuple, ...] = (
    (PauliGate.I, A_P, ((A_P, A_P, 1), (A_M, A_M, 1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.I, A_M, ((A_P, A_M, 1), (A_M, A_P, 1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.I, B_P, ((B_P, B_P, 1), (B_M, B_M, 1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.I, B_M, ((B_P, B_M, 1), (B_M, B_P, 1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.X, A_P, ((B_P, B_P, 1), (B_M, B_M, 1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.X, A_M, ((B_P, B_M, -1), (B_M, B_P, -1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.X, B_P, ((A_P, A_P, 1), (A_M, A_M, 1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.X, B_M, ((A_P, A_M, -1), (A_M, A_P, -1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.IY, A_P, ((B_P, B_M, -1), (B_M, B_P, -1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.IY, A_M, ((B_P, B_P, 1), (B_M, B_M, 1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.IY, B_P, ((A_P, A_M, -1), (A_M, A_P, -1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.IY, B_M, ((A_P, A_P, 1), (A_M, A_M, 1)), (PAIRING_2345, PAIRING_2345)),
    (PauliGate.Z, A_P, ((A_P, A_M, 1), (A_M, A_P, 1)), (PAIRING_2345, _S2545)),
    (PauliGate.Z, A_M, ((A_P, A_P, 1), (A_M, A_M, 1)), (_S2545, _S2545)),
    (PauliGate.Z, B_P, ((B_P, B_M, 1), (B_M, B_P, 1)), (_S2545, _S2545)),
    (PauliGate.Z, B_M, ((B_P, B_P, 1), (B_M, B_M, 1)), (_S2545, _S2545)),
)


def _entries_match(
    printed: tuple[tuple[BellOutcome, BellOutcome, int], ...],
    expr: BellProductExpr,
) -> bool:
    """Outcome-pair structure and relative sign, up to one global sign."""
    a = tuple(sorted((o1.ascii, o2.ascii, s) for o1, o2, s in printed))
    b = tuple(sorted(expr.signature()))
    neg = tuple(sorted((o1, o2, -s) for o1, o2, s in b))
    return a == b or a == neg


class Table1Row(NamedTuple):
    gate: str
    p1_outcome: str
    post_terms: str
    oracle_2345: str
    oracle_2534: str
    printed: str
    matched_pairings: tuple[str, ...]
    flags: tuple[str, ...]
    flagged: bool

    def to_dict(self) -> dict:
        return {
            "gate": self.gate,
            "p1_outcome": self.p1_outcome,
            "post_terms": self.post_terms,
            "oracle_pairing_23_45": self.oracle_2345,
            "oracle_pairing_25_34": self.oracle_2534,
            "printed": self.printed,
            "matched_pairings": list(self.matched_pairings),
            "flags": list(self.flags),
            "flagged": self.flagged,
        }


class _CollapseForms(NamedTuple):
    """A P1-conditional collapse's terms and its Bell decompositions, rendered.

    decompositions holds the (2,3),(4,5) and the (2,5),(3,4) forms, in that
    order; oracle_2345 and oracle_2534 are their renders.
    """

    post_terms: str
    decompositions: tuple[BellProductExpr, BellProductExpr]
    oracle_2345: str
    oracle_2534: str


@functools.cache
def _collapse_forms(
    label: StateLabel, gate: PauliGate, position: int, o1: BellOutcome
) -> _CollapseForms:
    """The (2,3,4,5) collapse left when (1,6) is found in o1, in every printed form.

    Read from the branch table: 17 keys, the collapse table's 16 and
    lie-state's one, filled on first use.
    """
    collapse = _view(_branches(label, gate, position), o1)[0].mid_after_p1
    post = from_statevector(collapse, MIDDLE_QUBITS)
    decomps = (bell_decompose(post, PAIRING_2345), bell_decompose(post, PAIRING_2534))
    return _CollapseForms(post.render(), decomps, decomps[0].render(), decomps[1].render())


def table1() -> list[Table1Row]:
    """Reproduce the 16-row collapse table for state A, gate on qubit 1.

    Each row's oracle collapse is decomposed under both four-qubit
    pairings and diffed against the printed entries; rows whose printed
    form requires the (2,5),(3,4) pairing or carries wrong pair
    subscripts are flagged, with the oracle-derived forms emitted
    alongside.  The oracle forms are read from a table; the diff runs on
    every call.
    """
    rows = []
    for gate, outcome, printed_entries, printed_subs in PRINTED_TABLE:
        forms = _collapse_forms(StateLabel.A, gate, 1, outcome)
        matched = [
            expr.pairing
            for expr in forms.decompositions
            if _entries_match(printed_entries, expr)
        ]
        flags = []
        if matched == [PAIRING_2534]:
            flags.append("pairing-(2,5)(3,4)")
        if matched and not any(all(sub == p for sub in printed_subs) for p in matched):
            flags.append("subscript-typo")
        printed_render = " ".join(
            BellProductExpr(subs, (entry,)).render()
            for entry, subs in zip(printed_entries, printed_subs)
        )
        rows.append(
            Table1Row(
                gate=gate._value_,
                p1_outcome=outcome.ascii,
                post_terms=forms.post_terms,
                oracle_2345=forms.oracle_2345,
                oracle_2534=forms.oracle_2534,
                printed=printed_render,
                matched_pairings=tuple("".join(f"({a},{b})" for a, b in p) for p in matched),
                flags=tuple(flags),
                flagged=bool(flags),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# scenario machinery


class AssertionRecord(NamedTuple):
    name: str
    expected: str
    observed: str
    passed: bool

    def to_dict(self) -> dict:
        return self._asdict()


class ScenarioReport(NamedTuple):
    name: str
    script: dict
    states: dict
    assertions: tuple[AssertionRecord, ...]

    @property
    def verdict(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "script": self.script,
            "states": self.states,
            "assertions": [a.to_dict() for a in self.assertions],
            "verdict": self.verdict,
        }

    def assertion(self, name: str) -> AssertionRecord:
        for record in self.assertions:
            if record.name == name:
                return record
        raise KeyError(name)


def _check(
    name: str, expected: str, observed: str, passed: Optional[bool] = None
) -> AssertionRecord:
    """One assertion; unless told otherwise, it passes when observed equals expected."""
    if passed is None:
        passed = expected == observed
    return AssertionRecord(name, expected, observed, passed)


def _check_match(name: str, expected: str, matched: bool) -> AssertionRecord:
    """A comparison whose observed value reads "match" or "mismatch"."""
    return _check(name, expected, "match" if matched else "mismatch", matched)


def _check_positive(outcomes: str, probability: Fraction) -> AssertionRecord:
    """That the scripted branch, P(outcomes), can occur."""
    return _check(
        "scripted branch has positive probability",
        f"P({outcomes}) > 0",
        f"P = {float(probability):.6f}",
        probability > 0,
    )


def _check_terms(name: str, state: SymbolicState, printed: str) -> AssertionRecord:
    """A state's signed patterns against the printed ones, such as "+0011 -1100"."""
    signed = " ".join(("+" if sign > 0 else "-") + key for key, sign in state.term_signs())
    return _check(name, printed, state.render(), signed == printed)


def _deduced(trace: PipelineTrace) -> tuple[str, str]:
    """The reconstructed action and secret as reported; a rejection reads the same in both."""
    result = trace.result
    if result is None:
        return (f"no-match ({trace.rejection})",) * 2
    return result.action.render(), result.secret


def _stage_renders(trace: PipelineTrace, stages: int = 4) -> dict[str, str]:
    """The first pipeline stages of a trace, rendered."""
    keys = ("expansion", "kept_after_state_filter", "attached", "final_kept")
    states = (trace.expansion, trace.kept_mid, trace.attached, trace.final_kept)
    return {k: s.render() for k, s in zip(keys[:stages], states)}


def misannouncement_matrix() -> dict:
    """Deductions per (true label, announced label) over all honest branches of X1.

    Each of the 128 (branch, announced label) reconstructions is one lookup in
    the decode table.
    """
    matrix: dict[str, dict[str, list[str]]] = {}
    for true_label in LABELS:
        row: dict[str, set[str]] = {lab._value_: set() for lab in LABELS}
        for branch in _branches(true_label, PauliGate.X, 1):
            for announced in LABELS:
                run = _reconstruction(branch.o2, branch.o3, announced, branch.o1, 1)
                deduction = "no-match" if run.result is None else run.result.action.render()
                row[announced._value_].add(deduction)
        matrix[true_label._value_] = {k: sorted(v) for k, v in row.items()}
    return matrix


# ---------------------------------------------------------------------------
# the five security scenarios


def scenario_lie_state() -> ScenarioReport:
    """Dealer prepared C and applied X at qubit 1, but announces state A."""
    true_gate, position = PauliGate.X, 1
    branches = _view(_branches(StateLabel.C, true_gate, position), A_P)
    p1_prob = sum(b.probability for b in branches)
    collapse = branches[0].mid_after_p1
    forms = _collapse_forms(StateLabel.C, true_gate, position, A_P)
    claimed = BellProductExpr(PAIRING_2345, ((A_P, A_P, 1), (A_M, A_M, -1)))

    o2, o3 = branches[0].o2, branches[0].o3
    run = _reconstruction(o2, o3, StateLabel.A, A_P, position)
    deduction, deduced_secret = _deduced(run)
    assertions = (
        _check_positive("a+ on (1,6)", p1_prob),
        _check(
            "collapse matches the printed a+a+ - a-a- pattern",
            "collapse ~ +a+(2,3)a+(4,5) -a-(2,3)a-(4,5)",
            f"collapse = {forms.post_terms}",
            _phase_equal(collapse, claimed.expand()),
        ),
        _check("deduction", "I1", deduction),
        _check("deduced secret", "00", deduced_secret),
        _check("true secret", "01", decode_secret(GateAction(true_gate, position))),
    )
    states = {
        "collapse_terms": forms.post_terms,
        "collapse_pairing_23_45": forms.oracle_2345,
        "collapse_pairing_25_34": forms.oracle_2534,
        **_stage_renders(run, 2),
        "misannouncement_matrix": misannouncement_matrix(),
    }
    script = {
        "true_state": "C",
        "true_action": "X1",
        "announced_state": "A",
        "announced_position": position,
        "p1_outcome": A_P.ascii,
        "p2_outcome": o2.ascii,
        "p3_outcome": o3.ascii,
    }
    return ScenarioReport("lie-state", script, states, assertions)


def scenario_lie_position() -> ScenarioReport:
    """Dealer applied iY at qubit 1 but announces qubit 6."""
    label, gate, true_position = StateLabel.A, PauliGate.IY, 1
    o1, o2, o3 = B_P, A_M, A_P
    prob = sum(b.probability for b in _view(_branches(label, gate, true_position), o1, o2, o3))
    trace = _reconstruction(o2, o3, label, o1, 6)
    expected_kept = (("000001", 1), ("111110", -1))
    observed_kept = trace.final_kept.term_signs()
    deduction, deduced_secret = _deduced(trace)
    assertions = (
        _check_positive("b+, a-, a+", prob),
        _check(
            "kept terms are the two cross-correlated terms",
            str(expected_kept),
            str(observed_kept),
            observed_kept == expected_kept,
        ),
        _check("deduction", "iY6", deduction),
        _check("deduced secret", "00", deduced_secret),
        _check("true secret", "11", decode_secret(GateAction(gate, true_position))),
    )
    script = {
        "true_state": label.value,
        "true_action": "iY1",
        "announced_state": label.value,
        "announced_position": 6,
        "p1_outcome": o1.ascii,
        "p2_outcome": o2.ascii,
        "p3_outcome": o3.ascii,
    }
    return ScenarioReport("lie-position", script, _stage_renders(trace), assertions)


def scenario_p1_withholds() -> ScenarioReport:
    """With P1's outcome unknown, every gate stays consistent (one per outcome)."""
    label, position = StateLabel.A, 1
    o2, o3 = A_M, A_P
    expected_map = {A_M: "I1", B_M: "X1", B_P: "iY1", A_P: "Z1"}
    display = BellProductExpr(PAIRING_2345, ((A_P, A_M, 1), (A_M, A_P, 1)))
    display_state = display.expand()

    observed_map: dict[str, str] = {}
    consistent: set[str] = set()
    all_positive = True
    all_display = True
    for o1 in expected_map:
        run = _reconstruction(o2, o3, label, o1, position)
        observed_map[o1.ascii] = _deduced(run)[0]
        if run.result is not None:
            consistent.add(observed_map[o1.ascii])
            table = _branches(label, run.result.action.gate, position)
            all_positive = all_positive and bool(_view(table, o1, o2, o3))
            collapse = _view(table, o1)[0].mid_after_p1
            all_display = all_display and _phase_equal(collapse, display_state)

    expected_deductions = {o.ascii: a for o, a in expected_map.items()}
    assertions = (
        _check(
            "one consistent gate per withheld outcome",
            str(expected_deductions),
            str(observed_map),
            observed_map == expected_deductions,
        ),
        _check("ambiguity set size", "4", str(len(consistent))),
        _check(
            "each consistent branch has positive probability",
            "all positive",
            "all positive" if all_positive else "some zero",
        ),
        _check_match(
            "every consistent configuration collapses to the same display state",
            "collapse ~ +a+(2,3)a-(4,5) +a-(2,3)a+(4,5)",
            all_display,
        ),
    )
    script = {
        "announced_state": label.value,
        "announced_position": position,
        "p2_outcome": o2.ascii,
        "p3_outcome": o3.ascii,
        "p1_outcome": "withheld",
    }
    states = {"display": display.render(), "deductions": observed_map}
    return ScenarioReport("p1-withholds", script, states, assertions)


def scenario_no_collusion() -> ScenarioReport:
    """With P3 withholding, P2's view leaves at least two gates consistent."""
    label, position = StateLabel.A, 1
    p2_outcome = A_P

    tables = {gate: _branches(label, gate, position) for gate in GATES}

    def gates_shown(o1: BellOutcome) -> list[str]:
        # P2's view with P3's outcome withheld: P1's outcome and its own
        return sorted(
            GateAction(g, position).render() for g, t in tables.items() if _view(t, o1, p2_outcome)
        )

    def p3_outcomes_seen(gate: PauliGate) -> list[str]:
        return sorted({b.o3.ascii for b in _view(tables[gate], o2=p2_outcome)})

    iy_gates = gates_shown(B_P)
    i_gates = gates_shown(A_P)
    iy_p3 = p3_outcomes_seen(PauliGate.IY)
    i_p3 = p3_outcomes_seen(PauliGate.I)
    iy_collapse = _view(tables[PauliGate.IY], B_P)[0].mid_after_p1
    i_collapse = _view(tables[PauliGate.I], A_P)[0].mid_after_p1
    eq3 = BellProductExpr(PAIRING_2534, ((A_P, A_M, 1), (A_M, A_P, 1)))
    eq9_corrected = BellProductExpr(PAIRING_2534, ((A_P, A_P, 1), (A_M, A_M, 1)))

    assertions = (
        _check("consistent gates, toggled run (P1=b+)", "['X1', 'iY1']", str(iy_gates)),
        _check("consistent gates, identity run (P1=a+)", "['I1', 'Z1']", str(i_gates)),
        _check(
            "ambiguity at least two in both runs",
            ">= 2",
            f"{len(iy_gates)} and {len(i_gates)}",
            len(iy_gates) >= 2 and len(i_gates) >= 2,
        ),
        _check(
            "P2's marginal admits both P3 outcomes (toggled run)",
            "['a+', 'a-']",
            str(iy_p3),
        ),
        _check(
            "P2's marginal admits both P3 outcomes (identity run)",
            "['a+', 'a-']",
            str(i_p3),
        ),
        _check_match(
            "toggled-run collapse re-pairs to a+a- + a-a+ on (2,5),(3,4)",
            eq3.render(),
            _phase_equal(iy_collapse, eq3.expand()),
        ),
        _check_match(
            "identity-run collapse re-pairs to a+a+ + a-a- on (2,5),(3,4)",
            eq9_corrected.render() + " (corrected from a duplicated printed term)",
            _phase_equal(i_collapse, eq9_corrected.expand()),
        ),
    )
    script = {
        "announced_state": label.value,
        "announced_position": position,
        "p2_outcome": p2_outcome.ascii,
        "p3_outcome": "withheld",
        "runs": {"toggled": "iY1 with P1=b+", "identity": "I1 with P1=a+"},
    }
    states = {
        "toggled_run_gates": iy_gates,
        "identity_run_gates": i_gates,
    }
    return ScenarioReport("no-collusion", script, states, assertions)


def scenario_eve_intercept() -> ScenarioReport:
    """Eve flips qubit 6 of a Z1-encoded state in transit."""
    label, dealer_gate, position = StateLabel.A, PauliGate.Z, 1
    modified = apply_gate(_encoded(label, dealer_gate, position), PauliGate.X, 6)

    expected_modified = DenseState(
        ((0b000001, 1), (0b000110, 1), (0b111001, -1), (0b111110, -1)), 2
    )
    modified_ok = modified == expected_modified

    walk = tuple(enumerate_branches(modified))
    prob = sum(b.probability for b in _view(walk, A_P, B_M, B_P))
    collapse_expr = BellProductExpr(PAIRING_2534, ((B_P, B_M, 1), (B_M, B_P, 1)))

    trace = _reconstruction(B_M, B_P, label, A_P, position)
    deduction, deduced_secret = _deduced(trace)
    tamper = trace.result.tamper

    # the same announcements with the dealer naming qubit 6
    counterfactual = _reconstruction(B_M, B_P, label, A_P, 6)
    counterfactual_state = counterfactual.final_kept
    counterfactual_action = _deduced(counterfactual)[0]

    honest_runs = (
        _reconstruction(b.o2, b.o3, lab, b.o1, pos)
        for lab, gate, pos in configurations()
        for b in _branches(lab, gate, pos)
    )
    false_positives = sum(1 for run in honest_runs if run.result is not None and run.result.tamper)

    assertions = (
        _check(
            "modified state matches the intercepted product state",
            "(|000>-|111>)(|001>+|110>)/2",
            "exact" if modified_ok else "mismatch",
            modified_ok,
        ),
        _check_match(
            "collapse after P1=a+ re-pairs to b+b- + b-b+ on (2,5),(3,4)",
            collapse_expr.render(),
            _phase_equal(_view(walk, A_P)[0].mid_after_p1, collapse_expr.expand()),
        ),
        _check_positive("a+, b-, b+", prob),
        _check_terms(
            "expansion matches the four printed terms",
            trace.expansion,
            "+0011 +0101 -1010 -1100",
        ),
        _check_terms(
            "state filter keeps the first and fourth term", trace.kept_mid, "+0011 -1100"
        ),
        _check_terms(
            "attached state matches the four printed six-qubit terms",
            trace.attached,
            "+000110 -011000 +100111 -111001",
        ),
        _check_terms(
            "position filter keeps the second and third term",
            trace.final_kept,
            "-011000 +100111",
        ),
        _check("deduction", "iY1", deduction),
        _check(
            "tamper report",
            "X on qubit 6",
            tamper.render() if tamper else "none",
        ),
        _check_terms(
            "counterfactual keeps the first and fourth term",
            counterfactual_state,
            "+000110 -111001",
        ),
        _check("counterfactual deduction (dealer announces qubit 6)", "X6",
               counterfactual_action),
        _check(
            "tamper false positives across honest branches",
            "0",
            str(false_positives),
        ),
    )
    script = {
        "true_state": label.value,
        "true_action": "Z1",
        "eve_action": "X6",
        "announced_state": label.value,
        "announced_position": position,
        "p1_outcome": A_P.ascii,
        "p2_outcome": B_M.ascii,
        "p3_outcome": B_P.ascii,
    }
    states = {
        "modified_state": from_statevector(modified, ALL_QUBITS).render(),
        **_stage_renders(trace),
        "counterfactual_kept": counterfactual_state.render(),
        "true_secret": decode_secret(GateAction(dealer_gate, position)),
        "deduced_secret": deduced_secret,
    }
    return ScenarioReport("eve-intercept", script, states, assertions)


SCENARIOS = {
    "lie-state": scenario_lie_state,
    "lie-position": scenario_lie_position,
    "p1-withholds": scenario_p1_withholds,
    "no-collusion": scenario_no_collusion,
    "eve-intercept": scenario_eve_intercept,
}
