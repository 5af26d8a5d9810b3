"""Exhaustive verification of the protocol and its security scenarios.

Branch enumeration chains exact Born probabilities instead of sampling,
so the honest-run check covers every positive-probability outcome triple
of every configuration.  The collapse table and the five adversary
scenarios are scripted, deterministic experiments whose reports carry
expected-vs-observed values for each assertion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .protocol import GateAction, decode_secret, make_announcements
from .qcore import (
    BELL_OUTCOMES,
    GATES,
    LABELS,
    BellOutcome,
    PauliGate,
    StateLabel,
    Statevector,
    apply_gate,
    bell_probabilities,
    global_phase_equal,
    partial_inner,
    prepare_state,
)
from .recon import (
    NoMatch,
    PipelineTrace,
    filter_untouched,
    infer_gate,
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

PHASE_TOL = 1e-12
PROB_TOL = 1e-9

PAIRING_2345: tuple[BellPair, BellPair] = ((2, 3), (4, 5))
PAIRING_2534: tuple[BellPair, BellPair] = ((2, 5), (3, 4))

A_P, A_M, B_P, B_M = BELL_OUTCOMES


# ---------------------------------------------------------------------------
# branch enumeration and exhaustive verification


@dataclass(frozen=True)
class Branch:
    """One positive-probability outcome triple with its oracle states."""

    o1: BellOutcome
    o2: BellOutcome
    o3: BellOutcome
    probability: float
    encoded: Statevector
    after_p1: Statevector
    after_p2: Statevector
    after_p3: Statevector


@dataclass(frozen=True)
class BranchRecord:
    label: str
    gate: str
    position: int
    secret: str
    p1: str
    p2: str
    p3: str
    probability: float
    reconstructed_action: Optional[str]
    reconstructed_secret: Optional[str]
    tamper: Optional[str]
    passed: bool
    failures: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "gate": self.gate,
            "position": self.position,
            "secret": self.secret,
            "p1": self.p1,
            "p2": self.p2,
            "p3": self.p3,
            "probability": round(self.probability, 12),
            "reconstructed_action": self.reconstructed_action,
            "reconstructed_secret": self.reconstructed_secret,
            "tamper": self.tamper,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def configurations() -> Iterator[tuple[StateLabel, PauliGate, int]]:
    for label in LABELS:
        for gate in GATES:
            for position in (1, 6):
                yield label, gate, position


def _walk(
    state: Statevector,
    o1s: Sequence[BellOutcome],
    o2s: Sequence[BellOutcome],
    o3s: Sequence[BellOutcome],
) -> Iterator[Branch]:
    """Measure (1,6), (2,5), (3,4) in turn, following the listed outcomes that can occur."""
    probs1 = bell_probabilities(state, (1, 6))
    for o1 in o1s:
        prob1, s1 = probs1[o1]
        if s1 is None:
            continue
        probs2 = bell_probabilities(s1, (2, 5))
        for o2 in o2s:
            prob2, s2 = probs2[o2]
            if s2 is None:
                continue
            probs3 = bell_probabilities(s2, (3, 4))
            for o3 in o3s:
                prob3, s3 = probs3[o3]
                if s3 is None:
                    continue
                yield Branch(o1, o2, o3, prob1 * prob2 * prob3, state, s1, s2, s3)


def enumerate_branches(state: Statevector) -> Iterator[Branch]:
    """All positive-probability (P1,P2,P3) outcome triples of one encoded state."""
    yield from _walk(state, BELL_OUTCOMES, BELL_OUTCOMES, BELL_OUTCOMES)


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / float(np.linalg.norm(vec))


@functools.cache
def _announced_product(o1: BellOutcome, o2: BellOutcome, o3: BellOutcome) -> np.ndarray:
    """Dense product of the three announced Bell kets, read-only (64 entries at most)."""
    product = expand_product(
        [bell_terms(o1, (1, 6)), bell_terms(o2, (2, 5)), bell_terms(o3, (3, 4))]
    )
    vec = to_statevector(product)
    vec.flags.writeable = False
    return vec


def _stage_failures(branch: Branch, trace: PipelineTrace) -> list[str]:
    """Symbolic pipeline stages vs oracle post-measurement states, up to phase."""
    failures = []
    # P2 x P3 expansion vs the (2,3,4,5) factor of the fully measured state
    oracle_mid = _unit(partial_inner(branch.after_p3, (1, 6), branch.o1))
    if not global_phase_equal(to_statevector(trace.expansion), oracle_mid, PHASE_TOL):
        failures.append("expansion differs from the measured (2,3,4,5) factor")
    # kept terms vs the (2,3,4,5) collapse conditioned on P1's outcome alone
    oracle_conditional = _unit(partial_inner(branch.after_p1, (1, 6), branch.o1))
    if not global_phase_equal(to_statevector(trace.kept_mid), oracle_conditional, PHASE_TOL):
        failures.append("kept terms differ from the P1-conditional collapse")
    # attached state vs the post-P1 six-qubit state
    if trace.attached is None or not global_phase_equal(
        to_statevector(trace.attached), branch.after_p1, PHASE_TOL
    ):
        failures.append("attached state differs from the post-P1 state")
    # no-signaling: the final state is exactly the product of announced kets
    product = _announced_product(branch.o1, branch.o2, branch.o3)
    if not global_phase_equal(product, branch.after_p3, PHASE_TOL):
        failures.append("final state is not the product of the announced kets")
    return failures


def _honest_runs() -> Iterator[
    tuple[StateLabel, PauliGate, int, Branch, PipelineTrace | NoMatch]
]:
    """Every honest branch of every configuration with its reconstruction.

    Yields (label, gate, position, branch, trace), where trace is the
    reconstruction's PipelineTrace or the NoMatch it raised.
    """
    for label, gate, position in configurations():
        encoded = apply_gate(prepare_state(label), gate, position)
        for branch in enumerate_branches(encoded):
            announcements = make_announcements(
                branch.o2, branch.o3, label, branch.o1, position
            )
            try:
                trace: PipelineTrace | NoMatch = reconstruct_trace(announcements)
            except NoMatch as exc:
                trace = exc
            yield label, gate, position, branch, trace


def exhaustive_verify() -> list[BranchRecord]:
    """Reconstruct every positive-probability branch of every configuration."""
    records = []
    for label, gate, position, branch, trace in _honest_runs():
        action = GateAction(gate, position)
        secret = decode_secret(action)
        failures = []
        reconstructed_action = None
        reconstructed_secret = None
        tamper = None
        if isinstance(trace, NoMatch):
            failures.append(f"reconstruction failed: {trace}")
        else:
            assert trace.result is not None
            reconstructed_action = trace.result.action.render()
            reconstructed_secret = trace.result.secret
            tamper = trace.result.tamper.render() if trace.result.tamper else None
            if trace.result.secret != secret:
                failures.append(
                    f"reconstructed {trace.result.secret!r}, encoded {secret!r}"
                )
            if trace.result.action != action:
                failures.append(
                    f"reconstructed {trace.result.action.render()}, "
                    f"encoded {action.render()}"
                )
            failures.extend(_stage_failures(branch, trace))
        records.append(
            BranchRecord(
                label=label.value,
                gate=gate.value,
                position=position,
                secret=secret,
                p1=branch.o1.ascii,
                p2=branch.o2.ascii,
                p3=branch.o3.ascii,
                probability=branch.probability,
                reconstructed_action=reconstructed_action,
                reconstructed_secret=reconstructed_secret,
                tamper=tamper,
                passed=not failures,
                failures=tuple(failures),
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
# and the pair subscripts attached to each printed ket.
_S2345 = ((2, 3), (4, 5))
_S2545 = ((2, 5), (4, 5))

PRINTED_TABLE: tuple[tuple, ...] = (
    (PauliGate.I, A_P, ((A_P, A_P, 1), (A_M, A_M, 1)), (_S2345, _S2345)),
    (PauliGate.I, A_M, ((A_P, A_M, 1), (A_M, A_P, 1)), (_S2345, _S2345)),
    (PauliGate.I, B_P, ((B_P, B_P, 1), (B_M, B_M, 1)), (_S2345, _S2345)),
    (PauliGate.I, B_M, ((B_P, B_M, 1), (B_M, B_P, 1)), (_S2345, _S2345)),
    (PauliGate.X, A_P, ((B_P, B_P, 1), (B_M, B_M, 1)), (_S2345, _S2345)),
    (PauliGate.X, A_M, ((B_P, B_M, -1), (B_M, B_P, -1)), (_S2345, _S2345)),
    (PauliGate.X, B_P, ((A_P, A_P, 1), (A_M, A_M, 1)), (_S2345, _S2345)),
    (PauliGate.X, B_M, ((A_P, A_M, -1), (A_M, A_P, -1)), (_S2345, _S2345)),
    (PauliGate.IY, A_P, ((B_P, B_M, -1), (B_M, B_P, -1)), (_S2345, _S2345)),
    (PauliGate.IY, A_M, ((B_P, B_P, 1), (B_M, B_M, 1)), (_S2345, _S2345)),
    (PauliGate.IY, B_P, ((A_P, A_M, -1), (A_M, A_P, -1)), (_S2345, _S2345)),
    (PauliGate.IY, B_M, ((A_P, A_P, 1), (A_M, A_M, 1)), (_S2345, _S2345)),
    (PauliGate.Z, A_P, ((A_P, A_M, 1), (A_M, A_P, 1)), (_S2345, _S2545)),
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


@dataclass(frozen=True)
class Table1Row:
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


def table1() -> list[Table1Row]:
    """Reproduce the 16-row collapse table for state A, gate on qubit 1.

    Each row's oracle collapse is decomposed under both four-qubit
    pairings and diffed against the printed entries; rows whose printed
    form requires the (2,5),(3,4) pairing or carries wrong pair
    subscripts are flagged, with the oracle-derived forms emitted
    alongside.
    """
    rows = []
    for gate, outcome, printed_entries, printed_subs in PRINTED_TABLE:
        encoded = apply_gate(prepare_state(StateLabel.A), gate, 1)
        collapse = _unit(partial_inner(encoded, (1, 6), outcome))
        post = from_statevector(collapse, (2, 3, 4, 5))
        decomp_2345 = bell_decompose(post, PAIRING_2345)
        decomp_2534 = bell_decompose(post, PAIRING_2534)
        matched = []
        if _entries_match(printed_entries, decomp_2345):
            matched.append("(2,3)(4,5)")
        if _entries_match(printed_entries, decomp_2534):
            matched.append("(2,5)(3,4)")
        flags = []
        if "(2,3)(4,5)" not in matched and "(2,5)(3,4)" in matched:
            flags.append("pairing-(2,5)(3,4)")
        canonical = {"(2,3)(4,5)": _S2345, "(2,5)(3,4)": ((2, 5), (3, 4))}
        subs_ok = any(
            all(sub == canonical[p] for sub in printed_subs) for p in matched
        )
        if matched and not subs_ok:
            flags.append("subscript-typo")
        printed_render = " ".join(
            ("+" if s > 0 else "-")
            + f"{o1.ascii}({sa[0]},{sa[1]}){o2.ascii}({sb[0]},{sb[1]})"
            for (o1, o2, s), (sa, sb) in zip(printed_entries, printed_subs)
        )
        rows.append(
            Table1Row(
                gate=gate.value,
                p1_outcome=outcome.ascii,
                post_terms=post.render(),
                oracle_2345=decomp_2345.render(),
                oracle_2534=decomp_2534.render(),
                printed=printed_render,
                matched_pairings=tuple(matched),
                flags=tuple(flags),
                flagged=bool(flags),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# scenario machinery


@dataclass(frozen=True)
class AssertionRecord:
    name: str
    expected: str
    observed: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "observed": self.observed,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    script: dict
    states: dict
    assertions: tuple[AssertionRecord, ...]
    verdict: bool

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


def _check(name: str, expected: str, observed: str) -> AssertionRecord:
    return AssertionRecord(name, expected, observed, expected == observed)


def _check_bool(name: str, condition: bool, expected: str, observed: str) -> AssertionRecord:
    return AssertionRecord(name, expected, observed, condition)


def _branch_probability(
    encoded: Statevector, o1: BellOutcome, o2: BellOutcome, o3: BellOutcome
) -> float:
    return next((b.probability for b in _walk(encoded, (o1,), (o2,), (o3,))), 0.0)


def _announce_and_run(o2, o3, label, o1, position):
    """Reconstruction outcome rendered as a string, trace attached."""
    announcements = make_announcements(o2, o3, label, o1, position)
    try:
        trace = reconstruct_trace(announcements)
    except NoMatch as exc:
        return f"no-match ({exc})", exc.trace
    assert trace.result is not None
    return trace.result.action.render(), trace


def _secret_of(deduction: str) -> str:
    """Decode a rendered action like 'iY1'; pass no-match strings through."""
    for gate in GATES:
        for position in (1, 6):
            if deduction == f"{gate.value}{position}":
                return decode_secret(GateAction(gate, position))
    return deduction


def misannouncement_matrix(gate: PauliGate = PauliGate.X, position: int = 1) -> dict:
    """Deductions per (true label, announced label) over all honest branches."""
    matrix: dict[str, dict[str, list[str]]] = {}
    for true_label in LABELS:
        encoded = apply_gate(prepare_state(true_label), gate, position)
        row: dict[str, set[str]] = {lab.value: set() for lab in LABELS}
        for branch in enumerate_branches(encoded):
            for announced in LABELS:
                outcome, _ = _announce_and_run(
                    branch.o2, branch.o3, announced, branch.o1, position
                )
                row[announced.value].add(outcome.split(" ")[0])
        matrix[true_label.value] = {k: sorted(v) for k, v in row.items()}
    return matrix


# ---------------------------------------------------------------------------
# the five security scenarios


def scenario_lie_state() -> ScenarioReport:
    """Dealer prepared C and applied X at qubit 1, but announces state A."""
    true_gate, position = PauliGate.X, 1
    encoded = apply_gate(prepare_state(StateLabel.C), true_gate, position)
    branches = list(_walk(encoded, (A_P,), BELL_OUTCOMES, BELL_OUTCOMES))
    p1_prob = sum(b.probability for b in branches)
    collapse = _unit(partial_inner(encoded, (1, 6), A_P))
    post = from_statevector(collapse, (2, 3, 4, 5))
    claimed = BellProductExpr(PAIRING_2345, ((A_P, A_P, 1), (A_M, A_M, -1)))
    claimed_vec = to_statevector(claimed.expand())
    collapse_matches = global_phase_equal(collapse, claimed_vec, PHASE_TOL)

    o2, o3 = branches[0].o2, branches[0].o3
    deduction, trace = _announce_and_run(o2, o3, StateLabel.A, A_P, position)

    true_secret = decode_secret(GateAction(true_gate, position))
    deduced_secret = _secret_of(deduction)
    assertions = (
        _check_bool(
            "scripted branch has positive probability",
            p1_prob > PROB_TOL,
            "P(a+ on (1,6)) > 0",
            f"P = {p1_prob:.6f}",
        ),
        _check_bool(
            "collapse matches the printed a+a+ - a-a- pattern",
            collapse_matches,
            "collapse ~ +a+(2,3)a+(4,5) -a-(2,3)a-(4,5)",
            f"collapse = {post.render()}",
        ),
        _check("deduction", "I1", deduction),
        _check("deduced secret", "00", deduced_secret),
        _check("true secret", "01", true_secret),
    )
    states = {
        "collapse_terms": post.render(),
        "collapse_pairing_23_45": bell_decompose(post, PAIRING_2345).render(),
        "collapse_pairing_25_34": bell_decompose(post, PAIRING_2534).render(),
        "expansion": trace.expansion.render() if trace else "",
        "kept_after_state_filter": trace.kept_mid.render() if trace else "",
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
    return ScenarioReport(
        "lie-state", script, states, assertions, all(a.passed for a in assertions)
    )


def scenario_lie_position() -> ScenarioReport:
    """Dealer applied iY at qubit 1 but announces qubit 6."""
    label, gate, true_position = StateLabel.A, PauliGate.IY, 1
    encoded = apply_gate(prepare_state(label), gate, true_position)
    o1, o2, o3 = B_P, A_M, A_P
    prob = _branch_probability(encoded, o1, o2, o3)
    deduction, trace = _announce_and_run(o2, o3, label, o1, 6)
    expected_kept = (("000001", 1), ("111110", -1))
    observed_kept = trace.final_kept.term_signs() if trace and trace.final_kept else ()
    deduced_secret = _secret_of(deduction)
    assertions = (
        _check_bool(
            "scripted branch has positive probability",
            prob > PROB_TOL,
            "P(b+, a-, a+) > 0",
            f"P = {prob:.6f}",
        ),
        _check_bool(
            "kept terms are the two cross-correlated terms",
            observed_kept == expected_kept,
            str(expected_kept),
            str(observed_kept),
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
    states = {
        "expansion": trace.expansion.render() if trace else "",
        "kept_after_state_filter": trace.kept_mid.render() if trace else "",
        "attached": trace.attached.render() if trace and trace.attached else "",
        "final_kept": trace.final_kept.render() if trace and trace.final_kept else "",
    }
    return ScenarioReport(
        "lie-position", script, states, assertions, all(a.passed for a in assertions)
    )


def scenario_p1_withholds() -> ScenarioReport:
    """With P1's outcome unknown, every gate stays consistent (one per outcome)."""
    label, position = StateLabel.A, 1
    o2, o3 = A_M, A_P
    expected_map = {A_M: "I1", B_M: "X1", B_P: "iY1", A_P: "Z1"}
    display = BellProductExpr(PAIRING_2345, ((A_P, A_M, 1), (A_M, A_P, 1)))
    display_vec = to_statevector(display.expand())

    observed_map: dict[str, str] = {}
    consistent: set[str] = set()
    all_positive = True
    all_display = True
    for o1, expected_action in expected_map.items():
        deduction, _ = _announce_and_run(o2, o3, label, o1, position)
        observed_map[o1.ascii] = deduction
        if "no-match" not in deduction:
            consistent.add(deduction)
            gate = PauliGate(deduction[:-1])
            encoded = apply_gate(prepare_state(label), gate, position)
            if _branch_probability(encoded, o1, o2, o3) <= PROB_TOL:
                all_positive = False
            collapse = _unit(partial_inner(encoded, (1, 6), o1))
            if not global_phase_equal(collapse, display_vec, PHASE_TOL):
                all_display = False

    assertions = (
        _check_bool(
            "one consistent gate per withheld outcome",
            observed_map == {o.ascii: a for o, a in expected_map.items()},
            str({o.ascii: a for o, a in expected_map.items()}),
            str(observed_map),
        ),
        _check("ambiguity set size", "4", str(len(consistent))),
        _check_bool(
            "each consistent branch has positive probability",
            all_positive,
            "all positive",
            "all positive" if all_positive else "some zero",
        ),
        _check_bool(
            "every consistent configuration collapses to the same display state",
            all_display,
            "collapse ~ +a+(2,3)a-(4,5) +a-(2,3)a+(4,5)",
            "match" if all_display else "mismatch",
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
    return ScenarioReport(
        "p1-withholds", script, states, assertions, all(a.passed for a in assertions)
    )


def scenario_no_collusion() -> ScenarioReport:
    """With P3 withholding, P2's view leaves at least two gates consistent."""
    label, position = StateLabel.A, 1
    p2_outcome = A_P

    def consistent_gates(p1_outcome: BellOutcome) -> list[str]:
        gates = set()
        for o3 in BELL_OUTCOMES:
            deduction, _ = _announce_and_run(p2_outcome, o3, label, p1_outcome, position)
            if "no-match" in deduction:
                continue
            gate = PauliGate(deduction[:-1])
            encoded = apply_gate(prepare_state(label), gate, position)
            if _branch_probability(encoded, p1_outcome, p2_outcome, o3) > PROB_TOL:
                gates.add(deduction)
        return sorted(gates)

    def p3_outcomes_seen(gate: PauliGate) -> list[str]:
        encoded = apply_gate(prepare_state(label), gate, position)
        seen = {
            b.o3.ascii for b in enumerate_branches(encoded) if b.o2 is p2_outcome
        }
        return sorted(seen)

    iy_gates = consistent_gates(B_P)
    i_gates = consistent_gates(A_P)
    iy_p3 = p3_outcomes_seen(PauliGate.IY)
    i_p3 = p3_outcomes_seen(PauliGate.I)

    iy_collapse = _unit(
        partial_inner(apply_gate(prepare_state(label), PauliGate.IY, 1), (1, 6), B_P)
    )
    eq3 = BellProductExpr(PAIRING_2534, ((A_P, A_M, 1), (A_M, A_P, 1)))
    i_collapse = _unit(
        partial_inner(apply_gate(prepare_state(label), PauliGate.I, 1), (1, 6), A_P)
    )
    eq9_corrected = BellProductExpr(PAIRING_2534, ((A_P, A_P, 1), (A_M, A_M, 1)))

    assertions = (
        _check("consistent gates, toggled run (P1=b+)", "['X1', 'iY1']", str(iy_gates)),
        _check("consistent gates, identity run (P1=a+)", "['I1', 'Z1']", str(i_gates)),
        _check_bool(
            "ambiguity at least two in both runs",
            len(iy_gates) >= 2 and len(i_gates) >= 2,
            ">= 2",
            f"{len(iy_gates)} and {len(i_gates)}",
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
        _check_bool(
            "toggled-run collapse re-pairs to a+a- + a-a+ on (2,5),(3,4)",
            global_phase_equal(iy_collapse, to_statevector(eq3.expand()), PHASE_TOL),
            eq3.render(),
            "match",
        ),
        _check_bool(
            "identity-run collapse re-pairs to a+a+ + a-a- on (2,5),(3,4)",
            global_phase_equal(i_collapse, to_statevector(eq9_corrected.expand()), PHASE_TOL),
            eq9_corrected.render() + " (corrected from a duplicated printed term)",
            "match",
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
    return ScenarioReport(
        "no-collusion", script, states, assertions, all(a.passed for a in assertions)
    )


def scenario_eve_intercept() -> ScenarioReport:
    """Eve flips qubit 6 of a Z1-encoded state in transit."""
    label, dealer_gate, position = StateLabel.A, PauliGate.Z, 1
    dealt = apply_gate(prepare_state(label), dealer_gate, position)
    modified = apply_gate(dealt, PauliGate.X, 6)

    expected_modified = np.zeros(64)
    expected_modified[0b000001] = 0.5
    expected_modified[0b000110] = 0.5
    expected_modified[0b111001] = -0.5
    expected_modified[0b111110] = -0.5
    modified_ok = bool(np.max(np.abs(modified - expected_modified)) <= PHASE_TOL)

    prob = _branch_probability(modified, A_P, B_M, B_P)
    collapse = _unit(partial_inner(modified, (1, 6), A_P))
    collapse_expr = BellProductExpr(PAIRING_2534, ((B_P, B_M, 1), (B_M, B_P, 1)))
    collapse_ok = global_phase_equal(
        collapse, to_statevector(collapse_expr.expand()), PHASE_TOL
    )

    deduction, trace = _announce_and_run(B_M, B_P, label, A_P, position)
    assert trace is not None and trace.result is not None and trace.final_kept is not None
    tamper = trace.result.tamper

    counterfactual = filter_untouched(trace.attached, label, 6)
    counterfactual_state = SymbolicState.from_terms(
        (1, 2, 3, 4, 5, 6), counterfactual.kept, trace.attached.norm_exponent
    )
    try:
        counterfactual_action = infer_gate(counterfactual_state, label, 6).render()
    except NoMatch as exc:
        counterfactual_action = f"no-match ({exc})"

    false_positives = sum(
        1
        for *_, trace in _honest_runs()
        if not isinstance(trace, NoMatch) and trace.result.tamper
    )

    assertions = (
        _check_bool(
            "modified state matches the intercepted product state",
            modified_ok,
            "(|000>-|111>)(|001>+|110>)/2",
            "exact" if modified_ok else "mismatch",
        ),
        _check_bool(
            "collapse after P1=a+ re-pairs to b+b- + b-b+ on (2,5),(3,4)",
            collapse_ok,
            collapse_expr.render(),
            "match" if collapse_ok else "mismatch",
        ),
        _check_bool(
            "scripted branch has positive probability",
            prob > PROB_TOL,
            "P(a+, b-, b+) > 0",
            f"P = {prob:.6f}",
        ),
        _check_bool(
            "expansion matches the four printed terms",
            trace.expansion.term_signs()
            == (("0011", 1), ("0101", 1), ("1010", -1), ("1100", -1)),
            "+0011 +0101 -1010 -1100",
            trace.expansion.render(),
        ),
        _check_bool(
            "state filter keeps the first and fourth term",
            trace.kept_mid.term_signs() == (("0011", 1), ("1100", -1)),
            "+0011 -1100",
            trace.kept_mid.render(),
        ),
        _check_bool(
            "attached state matches the four printed six-qubit terms",
            trace.attached is not None
            and trace.attached.term_signs()
            == (("000110", 1), ("011000", -1), ("100111", 1), ("111001", -1)),
            "+000110 -011000 +100111 -111001",
            trace.attached.render() if trace.attached else "",
        ),
        _check_bool(
            "position filter keeps the second and third term",
            trace.final_kept.term_signs() == (("011000", -1), ("100111", 1)),
            "-011000 +100111",
            trace.final_kept.render(),
        ),
        _check("deduction", "iY1", deduction),
        _check(
            "tamper report",
            "X on qubit 6",
            tamper.render() if tamper else "none",
        ),
        _check_bool(
            "counterfactual keeps the first and fourth term",
            counterfactual_state.term_signs() == (("000110", 1), ("111001", -1)),
            "+000110 -111001",
            counterfactual_state.render(),
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
        "modified_state": from_statevector(modified, (1, 2, 3, 4, 5, 6)).render(),
        "expansion": trace.expansion.render(),
        "kept_after_state_filter": trace.kept_mid.render(),
        "attached": trace.attached.render() if trace.attached else "",
        "final_kept": trace.final_kept.render(),
        "counterfactual_kept": counterfactual_state.render(),
        "true_secret": decode_secret(GateAction(dealer_gate, position)),
        "deduced_secret": trace.result.secret,
    }
    return ScenarioReport(
        "eve-intercept", script, states, assertions, all(a.passed for a in assertions)
    )


SCENARIOS = {
    "lie-state": scenario_lie_state,
    "lie-position": scenario_lie_position,
    "p1-withholds": scenario_p1_withholds,
    "no-collusion": scenario_no_collusion,
    "eve-intercept": scenario_eve_intercept,
}
