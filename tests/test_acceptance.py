"""End-to-end acceptance gate.

One test per claim, each printing a single PASS/FAIL line (visible with
pytest -s; the -v test report carries the same verdict). Tolerances are part
of the claims: exact-math comparisons use 1e-12, orthogonality and sweep
bounds use 1e-9.
"""
import collections
import dataclasses
import math
import pathlib
import time

from qmipsim import corpus
from qmipsim.adversary import default_families, derandomize_provers, search
from qmipsim.engine import simulate
from qmipsim.fileformat import load_protocol, parse_protocol, serialize_protocol
from qmipsim.specs import (
    ProverSpec,
    check_restrictive,
    check_well_formed,
    constant_reply,
    rotation_reply,
    sparse_gram,
    validate_protocol,
)
from qmipsim.transforms import lift_2ip_to_3qip, reduce_3qip_to_2qip, unify_alphabets

REPO = pathlib.Path(__file__).resolve().parent.parent

EXACT = 1e-12
BOUND = 1e-9
SWEEP_BUDGET_S = 300.0


def _verdict(cid: str, name: str, problems: list[str], note: str = "") -> None:
    ok = not problems
    line = f"{cid} {name}: {'PASS' if ok else 'FAIL'}"
    if ok and note:
        line += f" ({note})"
    if not ok:
        line += " (" + "; ".join(problems[:3]) + ")"
    print(line)
    assert ok, line


def test_c1_honest_baselines():
    problems = []
    expected = {
        ("always_accept_classical", ""): 1.0,
        ("always_accept_quantum", ""): 1.0,
        ("coinflip_classical", "0"): 0.5,
        ("coinflip_quantum", "0"): 0.5,
        ("no_comm", "0"): 0.5,
        ("no_comm_lift", "0"): 0.5,
        ("no_comm_reduce", "0"): 0.5,
        ("parity_relay", ""): 1.0,
        ("parity_relay", "1"): 1.0,
        ("parity_relay", "11"): 1.0,
    }
    for (name, x), want in expected.items():
        got = simulate(corpus.build(name), x).p_accept
        if abs(got - want) > EXACT:
            problems.append(f"{name}({x!r}) p_acc {got!r} != {want}")
    _verdict("C1", "honest baselines", problems, f"{len(expected)} runs exact to {EXACT:g}")


def test_c2_lift_is_well_formed_and_preserves_statistics():
    problems = []
    for base_name, inputs in (("no_comm", ("0", "00")), ("parity_relay", ("", "1", "11"))):
        classical = corpus.build(base_name)
        lifted = lift_2ip_to_3qip(classical).protocol
        try:
            validate_protocol(lifted)
        except Exception as exc:
            problems.append(f"{base_name}: {exc}")
            continue
        report = check_well_formed(lifted.verifier)
        if not report.ok:
            problems.append(f"{base_name}: {report.violations[0]}")
        if not check_restrictive(lifted.verifier):
            problems.append(f"{base_name}: rows exceed two branches")
        for x in inputs:
            c = simulate(classical, x)
            q = simulate(lifted, x)
            if abs(c.p_accept - q.p_accept) > EXACT or abs(c.p_reject - q.p_reject) > EXACT:
                problems.append(f"{base_name}({x!r}): {c.p_accept} vs {q.p_accept}")
    _verdict("C2", "lift well-formed, restrictive, statistics preserved", problems)


def test_c3_lift_soundness_sweep():
    p = corpus.build("no_comm_lift")
    result = search(p, "0", objective="max-accept")
    problems = []
    if result.best_value > 0.5 + BOUND:
        problems.append(f"best accept {result.best_value!r} beats 1/2")
    _verdict(
        "C3",
        "lifted protocol survives its adversary sweep",
        problems,
        f"max accept {result.best_value:.9f} over {result.evaluated} combinations",
    )


def test_c4_reduce_is_well_formed_and_preserves_row_geometry():
    problems = []
    unified = unify_alphabets(lift_2ip_to_3qip(corpus.build("no_comm")).protocol)
    out = reduce_3qip_to_2qip(unified)
    reduced = out.protocol
    try:
        validate_protocol(reduced)
    except Exception as exc:
        problems.append(str(exc))
    report = check_well_formed(reduced.verifier)
    if not report.ok:
        problems.append(report.violations[0])

    def vectors(v, keys):
        vecs = {}
        for key in keys:
            vec = {}
            for (q2, d, sent, w) in v.rows[key]:
                t = (q2, d, sent)
                vec[t] = vec.get(t, 0j) + complex(w)
            vecs[key] = vec
        return vecs

    back = dict(out.row_provenance)
    forward = {old: new for new, old in back.items()}
    old_gram = sparse_gram(vectors(unified.verifier, set(back.values())))
    new_gram = sparse_gram(vectors(reduced.verifier, set(back)))
    for (ka, kb), ip in new_gram.items():
        pair = tuple(sorted((back[ka], back[kb])))
        if abs(ip - old_gram.get(pair, 0j)) > BOUND:
            problems.append(f"gram {pair}: {ip} vs {old_gram.get(pair, 0j)}")
    for (ka, kb), ip in old_gram.items():
        pair = tuple(sorted((forward[ka], forward[kb])))
        if abs(ip - new_gram.get(pair, 0j)) > BOUND:
            problems.append(f"gram {pair} lost: source {ip}")
    cross = sum(1 for ip in new_gram.values() if abs(ip) > BOUND)
    _verdict(
        "C4",
        "reduction keeps rows orthonormal with source inner products",
        problems,
        f"{len(reduced.verifier.rows)} rows orthonormal, {cross} cross terms either side",
    )


def test_c5_reduce_preserves_statistics_and_survives_track_probes():
    problems = []
    classical = corpus.build("no_comm")
    reduced = corpus.build("no_comm_reduce")
    for x in ("0", "00"):
        c = simulate(classical, x)
        q = simulate(reduced, x)
        if abs(c.p_accept - q.p_accept) > EXACT:
            problems.append(f"({x!r}): {c.p_accept} vs {q.p_accept}")
    started = time.monotonic()
    result = search(reduced, "0", families=default_families(reduced), keep_table=True)
    elapsed = time.monotonic() - started
    if result.best_value > 0.5 + BOUND:
        problems.append(f"best accept {result.best_value!r} beats 1/2")
    outcomes = collections.Counter((round(acc, 12), round(rej, 12)) for _, acc, rej in result.table)
    expected = {(0.0, 1.0): 82_871, (1 / 32, 31 / 32): 71, (0.5, 0.5): 2}
    if outcomes != expected:
        problems.append(f"outcomes {dict(outcomes)} are not {expected}")
    if elapsed > SWEEP_BUDGET_S:
        problems.append(f"sweep took {elapsed:.1f}s > {SWEEP_BUDGET_S:.0f}s")
    _verdict(
        "C5",
        "reduced protocol matches and survives track probes",
        problems,
        f"max accept {result.best_value:.9f} over {result.evaluated} combinations in {elapsed:.1f}s",
    )


def test_c6_files_round_trip_identically():
    problems = []
    for name in sorted(corpus.REGISTRY):
        p = corpus.build(name)
        if parse_protocol(serialize_protocol(p)) != p:
            problems.append(f"{name} does not round-trip")
        shipped = REPO / "protocols" / f"{name}.qmip"
        if not shipped.exists():
            problems.append(f"{name} snapshot missing")
        elif load_protocol(str(shipped)) != p:
            problems.append(f"{name} snapshot is stale")
    _verdict("C6", "file format round-trips all corpus protocols", problems)


def test_c7_derandomization_never_hurts():
    problems = []
    cases = [
        ("parity_relay", "1", (rotation_reply("#", "1"), constant_reply("#")), True),
        ("no_comm", "0", (rotation_reply("#", "g"), constant_reply("#")), False),
    ]
    notes = []
    for name, x, strategies, expect_strict in cases:
        p = corpus.build(name)
        _, report = derandomize_provers(p, x, strategies)
        if not report.dominated:
            problems.append(
                f"{name}: det rejection {report.derandomized_p_reject} exceeds "
                f"quantum {report.quantum_p_reject}"
            )
        if expect_strict and not report.derandomized_p_reject < report.quantum_p_reject - BOUND:
            problems.append(f"{name}: expected a strict improvement")
        notes.append(
            f"{name}: {report.quantum_p_reject:.6f}->{report.derandomized_p_reject:.6f}"
        )
    _verdict("C7", "derandomized provers reject no more often", problems, "; ".join(notes))


def test_c8_extra_tape_space_changes_nothing():
    problems = []
    for name, x in (("no_comm_reduce", "0"), ("no_comm_lift", "0"), ("parity_relay", "11")):
        p = corpus.build(name)
        # 2 T ceil(log2 |widest channel alphabet|) cells: room for any strategy here
        widest = max(len(alphabet) for alphabet in p.verifier.comm_alphabets)
        bound = 2 * p.cutoff * max(1, math.ceil(math.log2(widest)))
        roomy = dataclasses.replace(
            p,
            provers=tuple(
                ProverSpec(
                    index=pr.index,
                    comm_alphabet=pr.comm_alphabet,
                    tape_alphabet=pr.tape_alphabet,
                    space=max(pr.space, bound),
                    strategy=pr.strategy,
                )
                for pr in p.provers
            ),
        )
        base = simulate(p, x)
        wide = simulate(roomy, x)
        if (
            abs(base.p_accept - wide.p_accept) > EXACT
            or abs(base.p_reject - wide.p_reject) > EXACT
            or base.halted_round != wide.halted_round
        ):
            problems.append(f"{name}({x!r}) changed under wider tapes")
    _verdict("C8", "statistics are independent of extra blank tape", problems)


def test_c9_reduced_relay_matches_the_base_run_on_every_input_below_its_cutoff():
    problems = []
    base = corpus.build("parity_relay")
    reduced = reduce_3qip_to_2qip(unify_alphabets(lift_2ip_to_3qip(base).protocol)).protocol
    inputs = ["1" * n for n in range(base.cutoff)]
    started = time.monotonic()
    for x in inputs:
        want, got = simulate(base, x), simulate(reduced, x)
        for field in ("p_accept", "p_reject", "leftover"):
            if abs(getattr(got, field) - getattr(want, field)) > EXACT:
                problems.append(f"({x!r}) {field} {getattr(got, field)!r} vs {getattr(want, field)!r}")
    elapsed = time.monotonic() - started
    # the pure state would hold 16^j configurations in round j
    deepest = [stat.configurations for stat in simulate(reduced, inputs[-1]).rounds]
    if deepest != [16 ** j for j in range(1, base.cutoff + 1)]:
        problems.append(f"({inputs[-1]!r}) configurations per round {deepest}")
    _verdict(
        "C9",
        "reduced relay matches the base run on every input below its cutoff",
        problems,
        f"{len(inputs)} inputs in {elapsed:.2f}s, {deepest[-1]} configurations in round {base.cutoff}",
    )
