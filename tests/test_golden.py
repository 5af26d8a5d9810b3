"""Golden byte pin: SHA-256 of the CLI's standard output and its exit code.

Any change to an output byte, in either format, fails here. The structured
digests are the ones the benchmark records for its audit workload; the rest
were recorded from the same code. Record again only for a change that is
meant to alter output, and say so in the change.
"""

import hashlib
import itertools

import pytest

from ghzshare.cli import main

GOLDEN = {
    ("verify", "--format", "structured"): (
        "9a6114e9d7e4310cb78a0a491d42e1642f4a1f7979ff643fb0a35477a4499cc9",
        0,
    ),
    ("table", "--format", "structured"): (
        "edb35dd01769d77576157d29335aec1b1099724e4c8bf5148e6b5c95e6ecb93a",
        0,
    ),
    ("scenario", "lie-state", "--format", "structured"): (
        "ec63d0b3fa1e0567b486467167a6abc2d1a72ba5f99ebe3e66eca03657287a60",
        1,
    ),
    ("scenario", "lie-position", "--format", "structured"): (
        "123d39323778b08e91281b7305e90be8dbce75e99f0d7be759b764fdacfba21b",
        0,
    ),
    ("scenario", "p1-withholds", "--format", "structured"): (
        "51e48c9544ed9bc1b98b9dc8fa371f756ee0db3476e9034e9a1ce70d55b12938",
        0,
    ),
    ("scenario", "no-collusion", "--format", "structured"): (
        "a27a284e27cb8d7ebeb9f12bdab2b2fd34c19093a7d1283115835b8bccf9263c",
        0,
    ),
    ("scenario", "eve-intercept", "--format", "structured"): (
        "44e11ef97b3119d33848bab822c39362fc0dc181a681d29968451b364156e36f",
        1,
    ),
    ("run", "--seed", "7"): (
        "df3e9146f1e76343066614ca27125b7bc0781030cc9eb6fc2643de33f513673f",
        0,
    ),
    ("run", "--seed", "7", "--format", "structured"): (
        "9bed14c9591b873888dbb732a7f74f05dd5e93f7b8dcdf9fec81c9bae916638d",
        0,
    ),
    ("verify",): (
        "b53193f80fc7a794ec70479e7a06e830e38b1ec5fb3129721c1bd22cc9f82dfb",
        0,
    ),
    ("table",): (
        "97425bf5716dd2bb8874bec022b81be2ad3852d0a357bd2e174f0d7b79a1dcd9",
        0,
    ),
    ("scenario", "lie-state"): (
        "877272a25050a26ba529752f4f1bb85797da174ebc37183d527e4b707a73b159",
        1,
    ),
    ("scenario", "lie-position"): (
        "37b7f0d239b6ebeb8489ab09dddee163f19bd66ec56005591018a9cf292af056",
        0,
    ),
    ("scenario", "p1-withholds"): (
        "ac979ee8fe1121e839d6ee4d1976967d7391fc4c8a693bd8446fa73e8e9dbc2b",
        0,
    ),
    ("scenario", "no-collusion"): (
        "e98eeed5d754074680db408c6af33f61a21512585dadf33ef9f34bb6dd9b0d1f",
        0,
    ),
    ("scenario", "eve-intercept"): (
        "bdb986576f93129e1709aa7063b89346462d267eea0f16991b8dfc625990d88f",
        1,
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_cli_output_is_byte_identical(argv, capsys):
    code = main(list(argv))
    stdout = capsys.readouterr().out.encode()
    assert (hashlib.sha256(stdout).hexdigest(), code) == GOLDEN[argv]


def _domain_text() -> str:
    """Every announcement tuple's outcome and stage renders, one block per tuple."""
    from ghzshare.protocol import make_announcements
    from ghzshare.qcore import BELL_OUTCOMES, LABELS
    from ghzshare.recon import reconstruct_trace
    from ghzshare.symexact import SymbolicState

    def state(s):
        return "-" if s is None else f"{s.render()} k={s.norm_exponent}"

    def split(source, result):
        if result is None:
            return ["-", "-"]
        return [
            state(SymbolicState(source.qubits, terms, source.norm_exponent))
            for terms in (result.kept, result.discarded)
        ]

    lines = []
    for label, position, o1, o2, o3 in itertools.product(
        LABELS, (1, 6), BELL_OUTCOMES, BELL_OUTCOMES, BELL_OUTCOMES
    ):
        lines.append(f"{label.value} {position} {o1.value} {o2.value} {o3.value}")
        trace = reconstruct_trace(make_announcements(o2, o3, label, o1, position))
        r = trace.result
        if r is None:
            lines.append(f"NoMatch: {trace.rejection}")
        else:
            tamper = r.tamper.render() if r.tamper else "None"
            lines.append(f"{r.action.render()} {r.secret} {tamper}")
        lines.append(state(trace.expansion))
        lines += split(trace.expansion, trace.support_filter)
        lines.append(state(trace.kept_mid))
        lines.append(state(trace.attached))
        lines += split(trace.attached, trace.untouched_filter)
        lines.append(state(trace.final_kept))
    return "\n".join(lines) + "\n"


DOMAIN_SHA256 = "27ba596c7aa390419f44dbd16f4829deb842e8cfa3908c93d910ed7f9f31bcc9"


def test_all_512_tuples_reconstruct_byte_identically():
    # Results, NoMatch messages and every stage's kept and discarded terms.
    digest = hashlib.sha256(_domain_text().encode()).hexdigest()
    assert digest == DOMAIN_SHA256


def _sampled_transcripts() -> str:
    """Transcripts of seeds 0-4095, each with its own label, secret and position."""
    import random

    from ghzshare.protocol import run_protocol
    from ghzshare.qcore import LABELS

    texts = []
    for seed in range(4096):
        pick = random.Random(f"sampling-pin-{seed}")
        label = pick.choice((None, *LABELS))
        secret = pick.choice(("00", "01", "10", "11"))
        position = pick.choice((None, 1, 6))
        texts.append(run_protocol(label, secret, position, seed).to_json())
    return "\n".join(texts) + "\n"


SAMPLING_SHA256 = "1060d20a8a0ca226960c96befc6d01b964169256ae33fd4bcdfd1366966a7d6f"


def test_sampled_outcomes_are_pinned_for_4096_seeds():
    # measure_bell's sampling: which outcome each rng.random() draw selects
    digest = hashlib.sha256(_sampled_transcripts().encode()).hexdigest()
    assert digest == SAMPLING_SHA256
