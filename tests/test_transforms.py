import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmipsim import corpus
from qmipsim.adversary import search
from qmipsim.engine import simulate
from qmipsim.errors import (
    AlphabetMismatch,
    FamilyTooLarge,
    NoEraser,
    NotFairCoin,
    NotOrthonormal,
    NotRestrictive,
    NotReversible,
    ValidationError,
)
from qmipsim.specs import (
    BLANK,
    LEFT_END,
    ClassicalTableStrategy,
    EraserStrategy,
    ForeignGuard,
    ProtocolSpec,
    ProverSpec,
    ReversibleWrapStrategy,
    TrackGuard,
    TrackWrapStrategy,
    VerifierSpec,
    check_restrictive,
    check_well_formed,
    constant_reply,
    fixed_width_binary_encoding,
    guard_state,
    guard_states,
    parse_track,
    sparse_gram,
    sum_targets,
    track,
    validate_protocol,
    xor_symbols,
)
from qmipsim.tolerances import ORTHO_TOL
from qmipsim.transforms import (
    _guarded,
    complete_unitary,
    lift_2ip_to_3qip,
    make_eraser,
    make_reversible_prover,
    reduce_3qip_to_2qip,
    unify_alphabets,
)

H = 1 / math.sqrt(2)


# ---------------------------------------------------------------- building blocks


def test_make_reversible_keeps_injective_table():
    table = ClassicalTableStrategy(work=0, rows={("#", ()): ("a", ()), ("b", ()): ("b", ())})
    prover = ProverSpec(
        index=1, comm_alphabet=("#", "a", "b"), tape_alphabet=("#",), space=0, strategy=table
    )
    assert make_reversible_prover(prover, cutoff=4) is prover


def test_make_reversible_wraps_per_receive_injective_table():
    table = ClassicalTableStrategy(
        work=1,
        rows={
            ("#", ("#",)): ("#", ("#",)),
            ("1", ("#",)): ("1", ("1",)),
            ("1", ("1",)): ("#", ("#",)),
        },
    )
    prover = ProverSpec(
        index=1, comm_alphabet=("#", "1"), tape_alphabet=("#", "1"), space=1, strategy=table
    )
    wrapped = make_reversible_prover(prover, cutoff=4)
    assert isinstance(wrapped.strategy, ReversibleWrapStrategy)
    assert wrapped.strategy.hist_offset == 1
    assert wrapped.space == 1 + 4
    # the wrap resolves the merge: identical outputs now carry distinct logs
    a = wrapped.strategy.apply_quantum(1, "#", (BLANK,) * 5)
    b = wrapped.strategy.apply_quantum(1, "1", ("1",) + (BLANK,) * 4)
    assert a[0][0][0] == BLANK and b[0][0][0] == BLANK
    assert a[0][0][1] != b[0][0][1]


def test_make_reversible_rejects_true_merges():
    table = ClassicalTableStrategy(
        work=1, rows={("#", ("x",)): ("a", ("#",)), ("#", ("y",)): ("a", ("#",))}
    )
    prover = ProverSpec(
        index=1, comm_alphabet=("#",), tape_alphabet=("#", "x", "y", "a"), space=1, strategy=table
    )
    with pytest.raises(NotReversible):
        make_reversible_prover(prover, cutoff=4)


def test_make_reversible_rejects_non_table_strategies():
    prover = ProverSpec(
        index=1, comm_alphabet=("#",), tape_alphabet=("#",), space=1, strategy=EraserStrategy()
    )
    with pytest.raises(NotReversible):
        make_reversible_prover(prover, cutoff=4)


def test_make_reversible_names_a_strategy_without_a_kind_by_its_label():
    class LabelOnly:
        label = "label-only"

        def apply_quantum(self, step, comm, tape):
            return [((BLANK, tape), 1.0 + 0j)]

    prover = ProverSpec(index=1, comm_alphabet=("#",), tape_alphabet=("#",), space=1, strategy=LabelOnly())
    message = "prover 1 strategy 'label-only' is not a plain table"
    with pytest.raises(NotReversible, match=f"^{re.escape(message)}$"):
        make_reversible_prover(prover, cutoff=4)


def test_make_eraser_checks():
    e = make_eraser(3, ("#", "m"), cutoff=4)
    assert isinstance(e.strategy, EraserStrategy)
    assert e.tape_alphabet == ("#", "m")


# ---------------------------------------------------------------- lift


def test_lift_structure_on_no_comm():
    classical = corpus.build("no_comm")
    out = lift_2ip_to_3qip(classical)
    lifted = out.protocol
    validate_protocol(lifted)
    assert lifted.verifier.mode == "2qfa"
    assert lifted.k == 3
    assert lifted.name == "no_comm-lift"
    # nine source rows, each with a distinct record symbol
    assert len(out.log_symbols) == 9
    assert len(set(out.log_symbols.values())) == 9
    assert len(lifted.verifier.comm_alphabets[2]) == 10
    # nine lifted rows; a foreign guard rejects any nonblank record
    assert len(lifted.verifier.rows) == 9
    guard = lifted.verifier.fallback
    assert isinstance(guard, ForeignGuard)
    assert guard.slot_bases == classical.verifier.comm_alphabets + ((BLANK,),)
    assert check_well_formed(lifted.verifier)
    assert check_restrictive(lifted.verifier)


def test_lift_record_symbols_parse_back_to_their_rows():
    out = lift_2ip_to_3qip(corpus.build("no_comm"))
    for key, sym in out.log_symbols.items():
        upper, lower = parse_track(sym)
        q, sigma, comm = key
        assert upper.split(".") == [q, sigma, *comm]
        assert lower  # every branch sends something


def test_lift_provenance_covers_every_row():
    out = lift_2ip_to_3qip(corpus.build("no_comm"))
    rows = out.protocol.verifier.rows
    assert set(out.row_provenance) == set(rows)
    assert len(rows) == 9
    for key in rows:
        assert out.row_provenance[key] == (key[0], key[1], key[2][:2])
    # tampering with the record is the guard's, not a row's
    v = out.protocol.verifier
    for (q, sigma, comm), record in itertools.product(out.row_provenance.values(), v.comm_alphabets[2][1:]):
        (branch,) = v.lookup(q, sigma, comm + (record,))
        assert branch == (f"rejf[{q}|{sigma}]", 1, comm + (record,), 1)  # the reception is echoed back out


def test_lift_preserves_acceptance_statistics():
    classical = corpus.build("no_comm")
    lifted = lift_2ip_to_3qip(classical).protocol
    for x in ("0", "00"):
        c = simulate(classical, x)
        q = simulate(lifted, x)
        assert abs(c.p_accept - q.p_accept) <= 1e-12
        assert abs(c.p_reject - q.p_reject) <= 1e-12


def test_lift_merges_duplicate_coin_targets():
    # a coin flip whose two outcomes are identical lifts to one branch of
    # amplitude 1, not two branches of 1/sqrt(2)
    rows = {
        ("q0", LEFT_END, ("#", "#")): (
            ("acc", 1, ("#", "#"), 0.5),
            ("acc", 1, ("#", "#"), 0.5),
        )
    }
    verifier = VerifierSpec(
        mode="1pfa",
        states=("q0", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(("#",), ("#",)),
        rows=rows,
        fallback=None,
    )
    mute = ClassicalTableStrategy(work=0, rows={("#", ()): ("#", ())})
    provers = tuple(
        ProverSpec(index=i, comm_alphabet=("#",), tape_alphabet=("#",), space=0, strategy=mute)
        for i in (1, 2)
    )
    p = ProtocolSpec(name="dup", verifier=verifier, provers=provers, a=1.0, b=1.0, cutoff=1)
    out = lift_2ip_to_3qip(p)
    lifted_key = ("q0", LEFT_END, ("#", "#", "#"))
    (branch,) = out.protocol.verifier.rows[lifted_key]
    assert branch[3] == 1.0 + 0j


def test_lift_rejects_non_fair_coin_and_wrong_arity():
    with pytest.raises(NotFairCoin):
        lift_2ip_to_3qip(corpus.build("coinflip_quantum"))
    biased_rows = {
        ("q0", LEFT_END, ("#", "#")): (
            ("acc", 1, ("#", "#"), 0.3),
            ("rej", 1, ("#", "#"), 0.7),
        )
    }
    base = corpus.build("no_comm")
    biased = dataclasses.replace(
        base, verifier=dataclasses.replace(base.verifier, rows=biased_rows)
    )
    with pytest.raises(NotFairCoin):
        lift_2ip_to_3qip(biased)
    one_prover = corpus.build("coinflip_classical")
    with pytest.raises(ValidationError):
        lift_2ip_to_3qip(one_prover)


def test_lift_rejects_symbols_that_clash_with_record_syntax():
    rows = {
        ("q.0", LEFT_END, ("#", "#")): (("acc", 1, ("#", "#"), 1.0),),
    }
    verifier = VerifierSpec(
        mode="1pfa",
        states=("q.0", "acc", "rej"),
        initial="q.0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(("#",), ("#",)),
        rows=rows,
        fallback=None,
    )
    mute = ClassicalTableStrategy(work=0, rows={("#", ()): ("#", ())})
    provers = tuple(
        ProverSpec(index=i, comm_alphabet=("#",), tape_alphabet=("#",), space=0, strategy=mute)
        for i in (1, 2)
    )
    p = ProtocolSpec(name="dotted", verifier=verifier, provers=provers, a=1.0, b=1.0, cutoff=1)
    with pytest.raises(ValidationError):
        lift_2ip_to_3qip(p)


def test_lift_wraps_non_injective_tables_only_on_request():
    parity = corpus.build("parity_relay")
    out = lift_2ip_to_3qip(parity)
    assert isinstance(out.protocol.provers[0].strategy, ReversibleWrapStrategy)


def test_lift_rejects_tampered_record_channel():
    lifted = lift_2ip_to_3qip(corpus.build("no_comm")).protocol
    log = lifted.verifier.comm_alphabets[2][1]
    liar = ProverSpec(
        index=3,
        comm_alphabet=lifted.provers[2].comm_alphabet,
        tape_alphabet=lifted.provers[2].comm_alphabet,
        space=lifted.cutoff,
        strategy=constant_reply(log),
    )
    tampered = dataclasses.replace(lifted, provers=lifted.provers[:2] + (liar,))
    result = simulate(tampered, "0")
    assert result.p_reject == pytest.approx(1.0, abs=1e-12)
    assert result.halted_round == 2


def test_lift_keeps_the_source_foreign_guard():
    # a unified source rejects ("#", "g") into rejf[c0|0]: prover 2's base is
    # the blank alone; its lift must reject (#, g, #) the same way
    source = unify_alphabets(corpus.build("no_comm"))
    lifted = lift_2ip_to_3qip(source).protocol
    validate_protocol(lifted)
    assert check_well_formed(lifted.verifier)
    guard = lifted.verifier.fallback
    assert guard.slot_bases == source.verifier.fallback.slot_bases + ((BLANK,),)
    assert guard.known_states == source.verifier.fallback.known_states
    assert len(lifted.verifier.states) == len(source.verifier.states)
    for (q, sigma, _), comm in itertools.product(source.verifier.rows, itertools.product(
            *source.verifier.comm_alphabets)):
        if source.verifier.fallback.matches(comm):
            (want,) = source.verifier.lookup(q, sigma, comm)
            (got,) = lifted.verifier.lookup(q, sigma, comm + (BLANK,))
            assert got == (want[0], want[1], comm + (BLANK,), want[3])
    # with a prover that sends each shared symbol, the lift rejects as its source does
    for slot, sym, x in itertools.product((0, 1), source.verifier.comm_alphabets[0], ("", "0", "00")):
        honest = source.provers[slot]
        liar = dataclasses.replace(
            honest, tape_alphabet=honest.comm_alphabet, space=source.cutoff, strategy=constant_reply(sym))
        tampered = dataclasses.replace(
            source, provers=source.provers[:slot] + (liar,) + source.provers[slot + 1:])
        c = simulate(tampered, x)
        q = simulate(lift_2ip_to_3qip(tampered).protocol, x)
        assert abs(c.p_accept - q.p_accept) <= 1e-12
        assert abs(c.p_reject - q.p_reject) <= 1e-12


def test_lift_refuses_a_track_guard():
    classical = corpus.build("no_comm")
    v = classical.verifier
    guarded = dataclasses.replace(classical, verifier=dataclasses.replace(
        v, fallback=TrackGuard(slot_bases=v.comm_alphabets, known_states=frozenset())))
    with pytest.raises(ValidationError, match="track guard"):
        lift_2ip_to_3qip(guarded)


def _echo_row_lift(p: ProtocolSpec) -> ProtocolSpec:
    """The lift as it was built with explicit rows: after each lifted row, one
    row per non-blank record symbol echoes the reception into rej[q|sigma],
    and the verifier has no guard."""
    lifted = lift_2ip_to_3qip(p).protocol
    v = lifted.verifier
    rows = {}
    for key, row in v.rows.items():
        q, sigma, comm = key
        rows[key] = row
        for record in v.comm_alphabets[2][1:]:
            echo = comm[:2] + (record,)
            rows[q, sigma, echo] = ((guard_state("rej", q, sigma), 1, echo, 1.0 + 0j),)
    fresh = guard_states("rej", p.verifier.rows)
    return dataclasses.replace(lifted, verifier=dataclasses.replace(
        v,
        states=p.verifier.states + fresh,
        reject=p.verifier.reject | frozenset(fresh),
        rows=rows,
        fallback=None,
    ))


def _sweep_or_error(p, x, objective, cutoff):
    try:
        return search(p, x, objective=objective, cutoff=cutoff, keep_table=True)
    except FamilyTooLarge as e:
        return str(e)


@pytest.mark.parametrize("name, x", [
    ("no_comm", ""), ("no_comm", "0"), ("no_comm", "00"),
    ("parity_relay", ""), ("parity_relay", "1"), ("parity_relay", "11"),
])
def test_the_guard_lift_sweeps_and_runs_as_the_echo_rows_did(name, x):
    classical = corpus.build(name)
    echo_lift = _echo_row_lift(classical)
    lift = lift_2ip_to_3qip(classical).protocol
    assert len(echo_lift.verifier.rows) == 10 * len(lift.verifier.rows)
    echo_unified, unified = unify_alphabets(echo_lift), unify_alphabets(lift)
    echo_out, out = reduce_3qip_to_2qip(echo_unified), reduce_3qip_to_2qip(unified)
    # the reductions differ only in the echo rows' reject states, which no row reaches
    assert len(echo_out.dropped_rows) == 9 * len(out.protocol.verifier.rows)
    assert out.dropped_rows == []
    v = echo_out.protocol.verifier
    unused = set(guard_states("rej", classical.verifier.rows))
    assert out.protocol == dataclasses.replace(echo_out.protocol, verifier=dataclasses.replace(
        v, states=tuple(q for q in v.states if q not in unused), reject=v.reject - unused))
    for (old, new), cutoff in itertools.product(
            ((echo_lift, lift), (echo_unified, unified)), (2, 3, 4)):
        assert simulate(new, x, cutoff) == simulate(old, x, cutoff)
        for objective in ("max-accept", "min-reject"):
            assert _sweep_or_error(new, x, objective, cutoff) == _sweep_or_error(old, x, objective, cutoff)


# ---------------------------------------------------------------- unify


def test_unify_pads_to_power_of_two():
    lifted = lift_2ip_to_3qip(corpus.build("no_comm")).protocol
    unified = unify_alphabets(lifted)
    validate_protocol(unified)
    alphabets = unified.verifier.comm_alphabets
    assert len(set(alphabets)) == 1
    assert len(alphabets[0]) == 16
    assert alphabets[0][0] == BLANK
    assert "~0" in alphabets[0]
    assert isinstance(unified.verifier.fallback, ForeignGuard)
    assert unified.name == "no_comm-lift-unified"


def test_unify_preserves_statistics():
    lifted = lift_2ip_to_3qip(corpus.build("no_comm")).protocol
    unified = unify_alphabets(lifted)
    a = simulate(lifted, "0")
    b = simulate(unified, "0")
    assert abs(a.p_accept - b.p_accept) <= 1e-12
    assert a.halted_round == b.halted_round


def test_unify_keeps_the_lift_guard():
    lifted = lift_2ip_to_3qip(corpus.build("no_comm")).protocol
    unified = unify_alphabets(lifted)
    assert unified.verifier.fallback == lifted.verifier.fallback
    assert unified.verifier.states == lifted.verifier.states
    assert unified.verifier.reject == lifted.verifier.reject


def test_unify_refuses_second_pass():
    unified = unify_alphabets(lift_2ip_to_3qip(corpus.build("no_comm")).protocol)
    with pytest.raises(ValidationError):
        unify_alphabets(unified)


def test_unify_guard_rejects_padding_symbols():
    unified = unify_alphabets(lift_2ip_to_3qip(corpus.build("no_comm")).protocol)
    liar = ProverSpec(
        index=1,
        comm_alphabet=unified.provers[0].comm_alphabet,
        tape_alphabet=unified.provers[0].comm_alphabet,
        space=unified.cutoff,
        strategy=constant_reply("~0"),
    )
    tampered = dataclasses.replace(unified, provers=(liar,) + unified.provers[1:])
    result = simulate(tampered, "0")
    assert result.p_reject == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- reduce


def _unified():
    return unify_alphabets(lift_2ip_to_3qip(corpus.build("no_comm")).protocol)


def test_reduce_structure():
    out = reduce_3qip_to_2qip(_unified())
    reduced = out.protocol
    validate_protocol(reduced)
    assert reduced.k == 2
    assert reduced.name == "no_comm-lift-reduce"
    assert len(reduced.verifier.comm_alphabets[0]) == 256
    # the lift's rows all carry a blank record, so none is dropped
    assert len(reduced.verifier.rows) == 9
    assert out.dropped_rows == []
    assert set(out.row_provenance.values()) | set(out.dropped_rows) == set(
        _unified().verifier.rows
    )
    assert check_well_formed(reduced.verifier)
    assert isinstance(reduced.verifier.fallback, TrackGuard)
    for pr in reduced.provers:
        assert isinstance(pr.strategy, TrackWrapStrategy)


def test_reduce_masks_expand_each_branch_per_mask():
    unified = _unified()
    out = reduce_3qip_to_2qip(unified)
    gamma = len(unified.verifier.comm_alphabets[0])
    for new_key, old_key in out.row_provenance.items():
        old_branches = unified.verifier.rows[old_key]
        new_branches = out.protocol.verifier.rows[new_key]
        assert len(new_branches) == gamma * len(old_branches)
        root = 1 / math.sqrt(gamma)
        for (_, _, sent, w) in new_branches:
            assert abs(abs(w) - abs(root * old_branches[0][3])) <= 1e-12
            for sym in sent:
                assert parse_track(sym) is not None or sym == BLANK


def _with_gamma(p, order):
    # the shared channel alphabet reordered; with the blank moved off the
    # front, the symbols' fixed-width codes are no longer their positions
    gamma = order(p.verifier.comm_alphabets[0])
    verifier = dataclasses.replace(p.verifier, comm_alphabets=(gamma,) * p.k)
    provers = tuple(dataclasses.replace(prover, comm_alphabet=gamma) for prover in p.provers)
    return dataclasses.replace(p, verifier=verifier, provers=provers)


GAMMA_ORDERS = {
    "blank-first": lambda gamma: gamma,
    "rotated": lambda gamma: gamma[1:] + gamma[:1],
    "reversed": lambda gamma: gamma[::-1],
}


def _reduce_inputs():
    return [(name, order) for name in ("no_comm", "parity_relay") for order in GAMMA_ORDERS]


@pytest.mark.parametrize("name, order", _reduce_inputs())
def test_reduce_masks_pad_the_record_with_xor(name, order):
    # slot 1's lower track carries the mask r, slot 2's carries r XOR the
    # record the lift sent to the eraser, on the fixed-width codes
    lift = lift_2ip_to_3qip(corpus.build(name))
    unified = _with_gamma(unify_alphabets(lift.protocol), GAMMA_ORDERS[order])
    gamma = unified.verifier.comm_alphabets[0]
    assert (gamma[0] == BLANK) == (order == "blank-first")
    out = reduce_3qip_to_2qip(unified)
    encoding = fixed_width_binary_encoding(gamma)
    for new_key, old_key in out.row_provenance.items():
        records = {sent[2] for _, _, sent, _ in unified.verifier.rows[old_key]}
        assert records == {lift.log_symbols[lift.row_provenance[old_key]]}
        record, = records
        for _, _, sent, _ in out.protocol.verifier.rows[new_key]:
            (_, mask), (_, padded) = parse_track(sent[0]), parse_track(sent[1])
            assert padded == xor_symbols(encoding, mask, record)


def _reference_reduced_rows(v):
    # the reduction's rows built one (branch, mask) at a time from `track`
    # and `xor_symbols`, masks in alphabet order
    gamma = v.comm_alphabets[0]
    encoding = fixed_width_binary_encoding(gamma)
    root = complex(1 / math.sqrt(len(gamma)))
    rows = {}
    for (q, sigma, comm), branches in v.rows.items():
        if comm[2] != BLANK:
            continue
        summed = sum_targets(
            ((q2, d, (track(sent[0], r), track(sent[1], xor_symbols(encoding, r, sent[2])))), complex(w) * root)
            for q2, d, sent, w in branches
            for r in gamma
        )
        rows[(q, sigma, (track(comm[0], BLANK), track(comm[1], BLANK)))] = tuple(
            (q2, d, sent, w) for (q2, d, sent), w in summed.items()
        )
    return rows


@pytest.mark.parametrize("name, order", _reduce_inputs())
def test_reduce_rows_match_the_per_mask_reference(name, order):
    unified = _with_gamma(unify_alphabets(lift_2ip_to_3qip(corpus.build(name)).protocol), GAMMA_ORDERS[order])
    rows = reduce_3qip_to_2qip(unified).protocol.verifier.rows
    reference = _reference_reduced_rows(unified.verifier)
    assert list(rows) == list(reference)
    for key, branches in rows.items():
        assert repr(branches) == repr(reference[key])


def test_reduce_preserves_row_gram():
    unified = _unified()
    out = reduce_3qip_to_2qip(unified)
    # inner products between surviving source rows must reappear unchanged
    # between their reduced images, per scanned symbol
    def vectors(v, keys):
        vecs = {}
        for key in keys:
            vec = {}
            for (q2, d, sent, w) in v.rows[key]:
                t = (q2, d, sent)
                vec[t] = vec.get(t, 0j) + complex(w)
            vecs[key] = vec
        return vecs

    back = {new: old for new, old in out.row_provenance.items()}
    old_vecs = vectors(unified.verifier, back.values())
    new_vecs = vectors(out.protocol.verifier, back.keys())
    old_gram = sparse_gram(old_vecs)
    new_gram = sparse_gram(new_vecs)
    for (ka, kb), ip in new_gram.items():
        pair = (back[ka], back[kb])
        pair = pair if pair[0] <= pair[1] else (pair[1], pair[0])
        assert abs(ip - old_gram.get(pair, 0j)) <= 1e-9
    for (ka, kb), ip in old_gram.items():
        if abs(ip) > 1e-12:
            fwd = {old: new for new, old in back.items()}
            pair = (fwd[ka], fwd[kb])
            pair = pair if pair[0] <= pair[1] else (pair[1], pair[0])
            assert pair in new_gram


def test_reduce_preserves_statistics():
    classical = corpus.build("no_comm")
    reduced = reduce_3qip_to_2qip(_unified()).protocol
    for x in ("0", "00"):
        c = simulate(classical, x)
        q = simulate(reduced, x)
        assert abs(c.p_accept - q.p_accept) <= 1e-12


def test_reduce_guard_rejects_leftover_masks():
    reduced = reduce_3qip_to_2qip(_unified()).protocol
    liar = ProverSpec(
        index=1,
        comm_alphabet=reduced.provers[0].comm_alphabet,
        tape_alphabet=reduced.provers[0].comm_alphabet,
        space=reduced.cutoff,
        strategy=constant_reply(track("g", "g")),
    )
    tampered = dataclasses.replace(reduced, provers=(liar,) + reduced.provers[1:])
    result = simulate(tampered, "0")
    assert result.p_reject == pytest.approx(1.0, abs=1e-12)


def test_reduce_preconditions():
    with pytest.raises(NotRestrictive):
        reduce_3qip_to_2qip(corpus.build("no_comm"))  # classical
    lifted = lift_2ip_to_3qip(corpus.build("no_comm")).protocol
    with pytest.raises(AlphabetMismatch):
        reduce_3qip_to_2qip(lifted)  # alphabets differ before unify
    unified = _unified()
    two = dataclasses.replace(
        unified,
        provers=unified.provers[:2],
        verifier=dataclasses.replace(
            unified.verifier, comm_alphabets=unified.verifier.comm_alphabets[:2]
        ),
    )
    with pytest.raises(ValidationError):
        reduce_3qip_to_2qip(two)
    no_eraser = dataclasses.replace(
        unified,
        provers=unified.provers[:2]
        + (
            ProverSpec(
                index=3,
                comm_alphabet=unified.provers[2].comm_alphabet,
                tape_alphabet=unified.provers[2].tape_alphabet,
                space=unified.provers[2].space,
                strategy=constant_reply(BLANK),
            ),
        ),
    )
    with pytest.raises(NoEraser):
        reduce_3qip_to_2qip(no_eraser)


def test_reduce_refuses_a_row_that_sends_an_undeclared_symbol():
    # a hand-built protocol need not be validated; the reduction checks its rows first
    unified = _unified()
    key, ((q2, d, sent, w), *rest) = next(iter(unified.verifier.rows.items()))
    rows = {**unified.verifier.rows, key: ((q2, d, ("zz",) + sent[1:], w), *rest)}
    bad = dataclasses.replace(unified, verifier=dataclasses.replace(unified.verifier, rows=rows))
    with pytest.raises(ValidationError, match=re.escape("row sends 'zz' outside communication alphabet 1")):
        reduce_3qip_to_2qip(bad)


def test_reduce_rejects_wide_superpositions():
    unified = _unified()
    key, branches = next(iter(unified.verifier.rows.items()))
    third = 1 / math.sqrt(3)
    wide = {
        **unified.verifier.rows,
        key: (
            (branches[0][0], branches[0][1], branches[0][2], complex(third)),
            ("rej", 1, branches[0][2], complex(third)),
            (unified.verifier.initial, 1, branches[0][2], complex(third)),
        ),
    }
    broken = dataclasses.replace(
        unified, verifier=dataclasses.replace(unified.verifier, rows=wide)
    )
    with pytest.raises(NotRestrictive):
        reduce_3qip_to_2qip(broken)


def _reduced(name):
    return reduce_3qip_to_2qip(unify_alphabets(lift_2ip_to_3qip(corpus.build(name)).protocol)).protocol


def _parse_based_rejects(guard, slot, symbol):
    """The track guard's reject test when it parsed each symbol, kept as the reference."""
    parsed = parse_track(symbol)
    return parsed is None or parsed[1] != BLANK or parsed[0] not in guard.slot_bases[slot]


@pytest.mark.parametrize("name", ["no_comm", "parity_relay"])
def test_the_track_guard_rule_agrees_with_the_parse_based_rule_except_on_blank_over_blank(name):
    v = _reduced(name).verifier
    guard = v.fallback
    assert isinstance(guard, TrackGuard)
    extra = ("[#/#]", "g", "[g/g]", "[x/#]")
    for slot, alphabet in enumerate(v.comm_alphabets):
        assert BLANK in guard.slot_bases[slot]
        for symbol in alphabet + extra:
            if symbol == "[#/#]":
                # `track` never writes it; it used to pass the guard and fault as a missing row
                assert guard.rejects(slot, symbol) and not _parse_based_rejects(guard, slot, symbol)
            else:
                assert guard.rejects(slot, symbol) == _parse_based_rejects(guard, slot, symbol), symbol


@pytest.mark.parametrize("name", ["no_comm", "parity_relay"])
def test_reduced_corpus_verifiers_declare_only_plain_and_track_guard_reject_states(name):
    for v in (_reduced(name).verifier, corpus.build("no_comm_reduce").verifier):
        assert not [s for s in v.states if s.startswith("rejf[")]
        assert v.reject == {"rej"} | v.fallback.known_states
        assert all(s.startswith("rejt[") for s in v.fallback.known_states)


def _foreign_guarded_mini():
    one = 1.0 + 0j
    return VerifierSpec(
        mode="1qfa",
        states=("q0", "acc", "rej", "rejf[q0|¢]", "rejf[q0|$]"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej", "rejf[q0|¢]", "rejf[q0|$]"}),
        input_alphabet=("0",),
        comm_alphabets=((BLANK, "g"),),
        rows={
            ("q0", LEFT_END, (BLANK,)): (("q0", 1, (BLANK,), one),),
            ("q0", "$", (BLANK,)): (("acc", 1, (BLANK,), one),),
        },
        fallback=ForeignGuard(slot_bases=((BLANK,),), known_states=frozenset({"rejf[q0|¢]", "rejf[q0|$]"})),
    )


def test_guarded_keeps_a_replaced_guard_state_that_a_row_targets():
    v = _foreign_guarded_mini()
    one = 1.0 + 0j
    rows = {
        ("q0", LEFT_END, (BLANK,)): (("q0", 1, (BLANK,), one),),
        ("q0", "$", (BLANK,)): (("rejf[q0|$]", 1, (BLANK,), one),),
    }
    out = _guarded(v, TrackGuard, ((BLANK,),), rows=rows, comm_alphabets=((BLANK, track("g", BLANK)),))
    assert out.states == ("q0", "acc", "rej", "rejf[q0|$]", "rejt[q0|¢]", "rejt[q0|$]")
    assert out.reject == {"rej", "rejf[q0|$]", "rejt[q0|¢]", "rejt[q0|$]"}
    assert out.fallback == TrackGuard(slot_bases=((BLANK,),), known_states=frozenset({"rejt[q0|¢]", "rejt[q0|$]"}))
    assert out.rows == rows
    # a guard of the same kind keeps its states and declares none twice
    again = _guarded(v, ForeignGuard, ((BLANK, "g"),))
    assert again.states == v.states and again.reject == v.reject
    assert again.fallback.known_states == v.fallback.known_states
    # with no row aimed at them, a replaced guard's states go
    dropped = _guarded(v, TrackGuard, ((BLANK,),))
    assert dropped.states == ("q0", "acc", "rej", "rejt[q0|¢]", "rejt[q0|$]")


def _renamed_relay_lift(old, new):
    """The lifted `parity_relay` with channel symbol `old` renamed to `new`
    everywhere a channel symbol appears: rows, alphabets, guard bases, and
    the wrapped relay table."""
    def ren(sym):
        return new if sym == old else sym

    lifted = lift_2ip_to_3qip(corpus.build("parity_relay")).protocol
    v = lifted.verifier
    rows = {
        (q, sigma, tuple(map(ren, comm))): tuple((q2, d, tuple(map(ren, sent)), w) for q2, d, sent, w in row)
        for (q, sigma, comm), row in v.rows.items()
    }
    verifier = dataclasses.replace(
        v,
        rows=rows,
        comm_alphabets=tuple(tuple(map(ren, a)) for a in v.comm_alphabets),
        fallback=dataclasses.replace(v.fallback, slot_bases=tuple(tuple(map(ren, b)) for b in v.fallback.slot_bases)),
    )
    relay = lifted.provers[0]
    inner = relay.strategy.inner
    table = ClassicalTableStrategy(
        work=inner.work, rows={(ren(c), t): (ren(r), t2) for (c, t), (r, t2) in inner.rows.items()}
    )
    relay = dataclasses.replace(
        relay,
        comm_alphabet=tuple(map(ren, relay.comm_alphabet)),
        tape_alphabet=relay.tape_alphabet + (new,),
        strategy=dataclasses.replace(relay.strategy, inner=table),
    )
    return dataclasses.replace(lifted, verifier=verifier, provers=(relay,) + lifted.provers[1:])


def test_reduce_refuses_channel_symbols_that_track_symbols_cannot_carry():
    # [1/x/r] splits as ('1', 'x/r'), so the reduced relay would hear '1' and fault
    lifted = _renamed_relay_lift("1", "1/x")
    validate_protocol(lifted)
    assert check_well_formed(lifted.verifier).ok
    for x in ("1", "11"):
        assert simulate(lifted, x).p_accept == pytest.approx(1.0, abs=1e-12)
    unified = unify_alphabets(lifted)
    with pytest.raises(ValidationError, match=re.escape("'1/x'")) as err:
        reduce_3qip_to_2qip(unified)
    # not AlphabetMismatch, which `qmipsim reduce` reads as "unify first"
    assert not isinstance(err.value, AlphabetMismatch)
    # a rename that a track symbol carries still reduces
    reduce_3qip_to_2qip(unify_alphabets(_renamed_relay_lift("1", "one")))


# ---------------------------------------------------------------- completion


def test_complete_unitary_identity_from_empty():
    basis = ["a", "b", "c"]
    full = complete_unitary({}, basis, basis)
    for elem in basis:
        assert full[elem] == {elem: pytest.approx(1.0)}


def test_complete_unitary_fills_orthogonal_columns():
    basis = ["a", "b"]
    partial = {"a": {"a": complex(H), "b": complex(H)}}
    full = complete_unitary(partial, basis, basis)
    m = np.array(
        [[full[c].get(r, 0j) for c in basis] for r in basis], dtype=complex
    )
    assert np.allclose(m.conj().T @ m, np.eye(2))


def test_complete_unitary_respects_prefer():
    basis = ["a", "b"]
    partial = {"a": {"a": complex(H), "b": complex(H)}}
    prefer = {"b": {"a": complex(H), "b": complex(-H)}}
    full = complete_unitary(partial, basis, basis, prefer=prefer)
    assert full["b"]["a"] == pytest.approx(complex(H))
    assert full["b"]["b"] == pytest.approx(complex(-H))


def test_complete_unitary_rejects_bad_columns():
    basis = ["a", "b"]
    with pytest.raises(NotOrthonormal):
        complete_unitary({"a": {"a": 0.5 + 0j}}, basis, basis)
    overlapping = {
        "a": {"a": complex(H), "b": complex(H)},
        "b": {"a": complex(H), "b": complex(H)},
    }
    with pytest.raises(NotOrthonormal):
        complete_unitary(overlapping, basis, basis)
    with pytest.raises(ValidationError):
        complete_unitary({}, ["a"], ["a", "b"])


def _lifted_with_alphabets_of_3():
    p = corpus.build("no_comm_lift")
    return dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, comm_alphabets=((BLANK, "g", "h"),) * 3))


def _unified_with_a_track_guard():
    p = unify_alphabets(corpus.build("no_comm_lift"))
    return dataclasses.replace(p, verifier=_guarded(p.verifier, TrackGuard, p.verifier.fallback.slot_bases))


@pytest.mark.parametrize("call, error, message", [
    (lambda: unify_alphabets(corpus.build("no_comm_reduce")), ValidationError,
     "cannot unify a protocol with a track guard"),
    (lambda: reduce_3qip_to_2qip(_lifted_with_alphabets_of_3()), AlphabetMismatch,
     "channel alphabet size 3 is not a power of two; run unify_alphabets first"),
    (lambda: reduce_3qip_to_2qip(_unified_with_a_track_guard()), ValidationError,
     "cannot reduce a protocol that already has a track guard"),
    (lambda: complete_unitary({}, ["a", "a"], ["a", "b"]), ValidationError, "basis elements must be distinct"),
    (lambda: complete_unitary({"a": {"z": 1}}, ["a", "b"], ["a", "b"]), ValidationError,
     "column targets unknown basis element 'z'"),
], ids=["unify-track-guard", "reduce-alphabet-size", "reduce-track-guard", "complete-repeated-basis",
        "complete-unknown-target"])
def test_each_transform_refusal_names_its_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _unitarity_error(full, basis):
    m = np.array([[full[c].get(r, 0j) for c in basis] for r in basis], dtype=complex)
    return np.abs(m.conj().T @ m - np.eye(len(basis))).max()


def _given_columns(matrix, rows, cols):
    return {c: {r: complex(matrix[i, j]) for i, r in enumerate(rows)} for j, c in enumerate(cols)}


@pytest.mark.parametrize("n", [40, 64])
def test_complete_unitary_stays_unitary_on_a_half_dft(n):
    # a single Gram-Schmidt pass let rounding through: max |U*U - I| was
    # 5e-7 at n = 40 and 0.3 at n = 64
    basis = list(range(n))
    dft = np.exp(2j * np.pi * np.outer(basis, basis) / n) / np.sqrt(n)
    partial = _given_columns(dft[:, : n // 2], basis, basis[: n // 2])
    full = complete_unitary(partial, basis, basis)
    assert _unitarity_error(full, basis) <= ORTHO_TOL
    assert all(full[c] == partial[c] for c in partial)


@settings(max_examples=50)
@given(n=st.integers(2, 16), data=st.data())
def test_complete_unitary_extends_any_partial_isometry(n, data):
    k = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    isometry, _ = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
    basis = [f"e{i}" for i in range(n)]
    partial = _given_columns(isometry, basis, data.draw(st.permutations(basis))[:k])
    full = complete_unitary(partial, basis, basis)
    assert _unitarity_error(full, basis) <= ORTHO_TOL
    assert all(full[c] == partial[c] for c in partial)


def test_complete_unitary_takes_basis_elements_of_mixed_types():
    basis = ["0", ("s", 1), 2, frozenset({"x"})]
    partial = {("s", 1): {"0": complex(H), 2: complex(-H)}, 2: {("s", 1): 1j}}
    full = complete_unitary(partial, basis, basis)
    assert _unitarity_error(full, basis) <= ORTHO_TOL
    assert all(full[c] == partial[c] for c in partial)


def test_parity_chain_preserves_statistics_end_to_end():
    classical = corpus.build("parity_relay")
    lifted = lift_2ip_to_3qip(classical).protocol
    reduced = reduce_3qip_to_2qip(unify_alphabets(lifted)).protocol
    for x in ("", "1", "11"):
        c = simulate(classical, x)
        for stage in (lifted, reduced):
            q = simulate(stage, x)
            assert abs(c.p_accept - q.p_accept) <= 1e-12
            assert abs(c.p_reject - q.p_reject) <= 1e-12


def test_simulate_dispatches_across_the_chain():
    reduced = corpus.build("no_comm_reduce")
    assert simulate(reduced, "0").p_accept == pytest.approx(0.5, abs=1e-12)
