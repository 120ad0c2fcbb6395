import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmipsim import corpus
from qmipsim.adversary import _Forced
from qmipsim.errors import (
    AlphabetMismatch,
    MissingTransition,
    NotReversible,
    QmipError,
    SpaceExceeded,
    ValidationError,
)
from qmipsim.specs import (
    BLANK,
    LEFT_END,
    RIGHT_END,
    ClassicalTableStrategy,
    DerandomizedStrategy,
    EraserStrategy,
    ForeignGuard,
    LoggedReplyStrategy,
    ProtocolSpec,
    ProverSpec,
    ReversibleWrapStrategy,
    TrackGuard,
    TrackWrapStrategy,
    UnitaryTableStrategy,
    VerifierSpec,
    _write_cell,
    check_prover_columns,
    check_restrictive,
    check_well_formed,
    constant_reply,
    declared_cells,
    echo_reply,
    fair_coin_violations,
    fixed_width_binary_encoding,
    guard_state,
    make_track_alphabet,
    parse_track,
    restrictive_violations,
    rotation_reply,
    track,
    validate_protocol,
    xor_symbols,
)
from qmipsim.tolerances import ORTHO_TOL
from qmipsim.transforms import lift_2ip_to_3qip

H = 1 / math.sqrt(2)


# ---------------------------------------------------------------- symbols


def test_track_blank_collapse():
    assert track(BLANK, BLANK) == BLANK
    assert track("a", BLANK) == "[a/#]"
    assert track(BLANK, "b") == "[#/b]"


def test_parse_track_round_trip():
    for upper, lower in [("a", "b"), ("q.0", "1.1"), (BLANK, "z")]:
        assert parse_track(track(upper, lower)) == (upper, lower)
    assert parse_track(BLANK) == (BLANK, BLANK)


def test_parse_track_nested():
    # the top-level slash is found by bracket depth, not by first match
    assert parse_track("[a/[b/c]]") == ("a", "[b/c]")
    assert parse_track("[[a/b]/c]") == ("[a/b]", "c")


def test_parse_track_rejects_garbage():
    for bad in ["noslash", "[a/b", "a/b]", ""]:
        assert parse_track(bad) is None


def test_parse_track_repeats_its_answer():
    # memoized: later calls, also with an equal but separately built string,
    # give the first call's answer, garbage included
    symbols = ["[a/b]", "[a/[b/c]]", BLANK, "[/]", "noslash", "[a/b", "a/b]", "", "[ab]"]
    first = [parse_track(sym) for sym in symbols]
    assert first[:4] == [("a", "b"), ("a", "[b/c]"), (BLANK, BLANK), ("", "")]
    assert first[4:] == [None] * 5
    for _ in range(2):
        assert [parse_track(sym) for sym in symbols] == first
        assert [parse_track("".join(list(sym))) for sym in symbols] == first


def test_make_track_alphabet_order_and_blank():
    alpha = make_track_alphabet(("#", "a"), ("#", "x"))
    assert alpha == ("#", "[#/x]", "[a/#]", "[a/x]")


def test_fixed_width_binary_encoding():
    enc = fixed_width_binary_encoding(("#", "a", "b", "c"))
    assert enc[BLANK] == "00"
    assert sorted(enc.values()) == ["00", "01", "10", "11"]
    # a two-symbol alphabet still gets one bit
    enc2 = fixed_width_binary_encoding(("#", "z"))
    assert set(enc2.values()) == {"0", "1"}


def test_xor_symbols():
    enc = fixed_width_binary_encoding(("#", "a", "b", "c"))
    assert xor_symbols(enc, BLANK, "a") == "a"
    for s in enc:
        assert xor_symbols(enc, s, s) == BLANK
    # xor undoes itself
    x = xor_symbols(enc, "a", "b")
    assert xor_symbols(enc, x, "b") == "a"


def test_xor_symbols_needs_power_of_two():
    enc = fixed_width_binary_encoding(("#", "a", "b"))
    with pytest.raises(AlphabetMismatch):
        xor_symbols(enc, "a", "b")


# ---------------------------------------------------------------- strategies


def test_eraser_swaps_comm_with_indexed_cell():
    e = EraserStrategy()
    reply, tape = e.apply_classical(1, "g", (BLANK, BLANK, BLANK))
    assert (reply, tape) == (BLANK, ("g", BLANK, BLANK))
    reply, tape = e.apply_classical(2, BLANK, tape)
    assert (reply, tape) == (BLANK, ("g", BLANK, BLANK))
    reply, tape = e.apply_classical(3, "h", tape)
    assert (reply, tape) == (BLANK, ("g", BLANK, "h"))
    # quantum view is the same permutation with amplitude 1
    branches = e.apply_quantum(1, "g", (BLANK,))
    assert branches == [((BLANK, ("g",)), 1.0 + 0j)]


def test_eraser_respects_space():
    e = EraserStrategy()
    with pytest.raises(SpaceExceeded):
        e.apply_classical(2, "g", (BLANK,))


def test_classical_table_lookup_and_mutation():
    table = ClassicalTableStrategy(
        work=1, rows={("#", ("#",)): ("a", ("m",)), ("a", ("m",)): ("#", ("#",))}
    )
    assert table.apply_classical(1, BLANK, (BLANK,)) == ("a", ("m",))
    assert table.apply_classical(2, "a", ("m",)) == (BLANK, (BLANK,))
    with pytest.raises(MissingTransition):
        table.apply_classical(1, "z", (BLANK,))


def test_classical_table_preserves_cells_past_work():
    table = ClassicalTableStrategy(work=1, rows={("#", ("#",)): ("a", ("m",))})
    reply, tape = table.apply_classical(1, BLANK, (BLANK, "keep"))
    assert (reply, tape) == ("a", ("m", "keep"))


def test_classical_table_rejects_rows_of_the_wrong_work_length():
    # such a row would shift every later cell: ("#", "x") became ("#", "#", "x")
    with pytest.raises(ValidationError, match="work tuples of 1 cells"):
        ClassicalTableStrategy(work=1, rows={("#", ("#",)): ("#", ("#", "#"))}).apply_classical(1, "#", ("#", "x"))
    with pytest.raises(ValidationError):
        ClassicalTableStrategy(work=1, rows={("#", ()): ("#", ("#",))})


def test_classical_table_injectivity_flags():
    injective = ClassicalTableStrategy(work=0, rows={("#", ()): ("a", ()), ("b", ()): ("b", ())})
    assert injective.is_injective()
    # two receives mapping to one image: not injective overall,
    # but each received symbol alone is fine
    per_recv = ClassicalTableStrategy(work=0, rows={("#", ()): ("a", ()), ("b", ()): ("a", ())})
    assert not per_recv.is_injective()
    assert per_recv.injective_per_receive()
    # same receive, two work contents, one image: not even per-receive
    bad = ClassicalTableStrategy(
        work=1, rows={("#", ("x",)): ("a", ("#",)), ("#", ("y",)): ("a", ("#",))}
    )
    assert not bad.injective_per_receive()


def test_reversible_wrap_logs_received_symbol():
    inner = ClassicalTableStrategy(work=0, rows={("#", ()): ("a", ()), ("b", ()): ("a", ())})
    wrapped = ReversibleWrapStrategy(inner=inner, hist_offset=0)
    branches = wrapped.apply_quantum(1, "b", (BLANK, BLANK))
    assert branches == [(("a", ("b", BLANK)), 1.0 + 0j)]
    branches = wrapped.apply_quantum(2, BLANK, ("b", BLANK))
    assert branches == [(("a", ("b", BLANK)), 1.0 + 0j)]


def test_reversible_wrap_never_overwrites_history():
    inner = ClassicalTableStrategy(work=0, rows={("#", ()): ("a", ())})
    wrapped = ReversibleWrapStrategy(inner=inner, hist_offset=0)
    with pytest.raises(MissingTransition):
        wrapped.apply_quantum(1, BLANK, ("dirty",))


def test_track_wrap_strips_and_stores_mask():
    inner = ClassicalTableStrategy(work=0, rows={("g", ()): ("h", ())})
    wrapped = TrackWrapStrategy(inner=inner, mask_offset=0)
    branches = wrapped.apply_quantum(1, track("g", "r"), (BLANK, BLANK))
    assert branches == [((track("h", BLANK), ("r", BLANK)), 1.0 + 0j)]
    # blank reception parses as blank over blank
    inner2 = ClassicalTableStrategy(work=0, rows={("#", ()): ("#", ())})
    wrapped2 = TrackWrapStrategy(inner=inner2, mask_offset=0)
    branches = wrapped2.apply_quantum(1, BLANK, (BLANK,))
    assert branches == [((BLANK, (BLANK,)), 1.0 + 0j)]


def test_track_wrap_rejects_non_track_reception():
    inner = ClassicalTableStrategy(work=0, rows={("g", ()): ("h", ())})
    wrapped = TrackWrapStrategy(inner=inner, mask_offset=0)
    with pytest.raises(MissingTransition):
        wrapped.apply_quantum(1, "plain", (BLANK,))


# ---------------------------------------------------------------- wrapper faults

# one work cell; the table flips it between # and m and replies with the reception
_FLIP = ClassicalTableStrategy(
    work=1,
    rows={(sym, (cell,)): (sym, ("m" if cell == BLANK else BLANK,)) for sym in (BLANK, "g") for cell in (BLANK, "m")},
)


class _Moves:
    """An inner strategy whose moves are given: `moves(tape)` is its move list for the tape it is passed."""

    def __init__(self, moves):
        self.moves = moves

    def apply_quantum(self, step, comm, tape):
        return self.moves(tape)


def test_a_track_wrap_faults_on_a_symbol_that_is_not_a_track_symbol():
    wrapped = TrackWrapStrategy(inner=_FLIP, mask_offset=1)
    for symbol in ("g", "[g]", "[g/#", "x/y"):
        with pytest.raises(MissingTransition, match=r"^track wrap received non-track symbol"):
            wrapped.apply_quantum(1, symbol, (BLANK, BLANK))


@pytest.mark.parametrize("tape", [(BLANK, "x", BLANK), (BLANK,)], ids=["full stash", "stash past the tape"])
def test_an_inner_fault_comes_before_any_stash_check(tape):
    # the table has no row for the upper symbol "z"; the stash at cell 1 would fault too
    with pytest.raises(MissingTransition, match=r"^prover table has no row"):
        TrackWrapStrategy(inner=_FLIP, mask_offset=1).apply_quantum(1, track("z", "r"), tape)
    with pytest.raises(MissingTransition, match=r"^prover table has no row"):
        ReversibleWrapStrategy(inner=_FLIP, hist_offset=1).apply_quantum(1, "z", tape)


def test_a_full_stash_cell_is_a_missing_transition():
    tape = (BLANK, BLANK, "x", BLANK)
    with pytest.raises(MissingTransition, match=r"^track wrap: history cell 2 already holds 'x'$"):
        TrackWrapStrategy(inner=_FLIP, mask_offset=1).apply_quantum(2, track("g", "r"), tape)
    with pytest.raises(MissingTransition, match=r"^reversible wrap: history cell 2 already holds 'x'$"):
        ReversibleWrapStrategy(inner=_FLIP, hist_offset=1).apply_quantum(2, "g", tape)


def test_a_stash_past_the_tape_exceeds_its_space():
    with pytest.raises(SpaceExceeded, match=r"^track wrap: tape has 3 cells, step needs cell 3$"):
        TrackWrapStrategy(inner=_FLIP, mask_offset=1).apply_quantum(3, track("g", "r"), (BLANK,) * 3)
    with pytest.raises(SpaceExceeded, match=r"^reversible wrap: tape has 3 cells, step needs cell 3$"):
        ReversibleWrapStrategy(inner=_FLIP, hist_offset=1).apply_quantum(3, "g", (BLANK,) * 3)


def test_the_wrappers_log_past_the_inner_cells_and_keep_every_other_cell():
    tape = (BLANK, "a", BLANK, "b", BLANK)
    assert TrackWrapStrategy(inner=_FLIP, mask_offset=1).apply_quantum(2, track("g", "r"), tape) == [
        ((track("g", BLANK), ("m", "a", "r", "b", BLANK)), 1.0 + 0j)
    ]
    assert ReversibleWrapStrategy(inner=_FLIP, hist_offset=2).apply_quantum(3, "g", tape) == [
        (("g", ("m", "a", BLANK, "b", "g")), 1.0 + 0j)
    ]


def test_a_track_wrap_over_no_inner_move_has_no_move():
    # no inner move, so no stash check either, though the stash cell is full
    wrapped = TrackWrapStrategy(inner=_Moves(lambda tape: []), mask_offset=1)
    assert wrapped.apply_quantum(1, track("g", "r"), (BLANK, "x")) == []


def test_a_track_wrap_checks_the_stash_of_every_inner_move():
    # the first move keeps its one work cell; the second hands back two, the second of
    # them full, and that cell is where the stash of step 1 lands
    inner = _Moves(lambda tape: [(("a", tape), 0.6 + 0j), (("b", ("w", "v")), 0.8 + 0j)])
    wrapped = TrackWrapStrategy(inner=inner, mask_offset=1)
    with pytest.raises(MissingTransition, match=r"^track wrap: history cell 1 already holds 'v'$"):
        wrapped.apply_quantum(1, track("g", "r"), (BLANK, BLANK))


def test_an_inner_tape_of_another_length_is_logged_as_the_plain_write_logs_it():
    # the inner moves hand back work of 0, 1 and 2 cells for a mask offset of 1;
    # each is joined to the cells past the offset and logged at cell offset + step - 1
    inner = _Moves(lambda tape: [(("a", ()), 0.6 + 0j), (("b", ("w",)), 0.0 + 0.6j), (("c", ("w", BLANK)), 0.52 + 0j)])
    wrapped = TrackWrapStrategy(inner=inner, mask_offset=1)
    assert wrapped.apply_quantum(1, track("g", "r"), (BLANK, BLANK, BLANK, "k")) == [
        ((track("a", BLANK), (BLANK, "r", "k")), 0.6 + 0j),
        ((track("b", BLANK), ("w", "r", BLANK, "k")), 0.0 + 0.6j),
        ((track("c", BLANK), ("w", "r", BLANK, BLANK, "k")), 0.52 + 0j),
    ]


# ---------------------------------------------------------------- negative cells


def test_a_negative_cell_is_never_written():
    tape = (BLANK,) * 3
    with pytest.raises(SpaceExceeded, match=r"^strategy s: tape has 3 cells, step needs cell -1$"):
        _write_cell(tape, -1, "g", "strategy", "s")
    with pytest.raises(SpaceExceeded, match=r"^strategy const:#: tape has 3 cells, step needs cell -1$"):
        constant_reply(BLANK).apply_quantum(0, "g", tape)
    with pytest.raises(SpaceExceeded, match=r"^eraser: tape has 3 cells, step 0 needs cell -1$"):
        EraserStrategy().apply_quantum(0, "g", tape)


def test_wrappers_refuse_a_negative_offset():
    with pytest.raises(ValidationError, match="history offset of at least 0, got -1"):
        ReversibleWrapStrategy(inner=_FLIP, hist_offset=-1)
    with pytest.raises(ValidationError, match="mask offset of at least 0, got -1"):
        TrackWrapStrategy(inner=_FLIP, mask_offset=-1)
    # the lifted relay's history wrap, moved one cell left of its tape
    wrap = lift_2ip_to_3qip(corpus.parity_relay()).protocol.provers[0].strategy
    with pytest.raises(ValidationError, match="history offset of at least 0, got -1"):
        dataclasses.replace(wrap, hist_offset=-1)


def test_unitary_table_steps():
    flip = {("#", (BLANK,)): [(("x", ("x",)), 1.0 + 0j)]}
    strat = UnitaryTableStrategy(work=1, steps={1: flip})
    assert strat.apply_quantum(1, BLANK, (BLANK,)) == [(("x", ("x",)), 1.0 + 0j)]
    with pytest.raises(MissingTransition):
        strat.apply_quantum(2, BLANK, ("x",))
    # a None key covers every step
    anystep = UnitaryTableStrategy(work=1, steps={None: flip})
    assert anystep.apply_quantum(7, BLANK, (BLANK,)) == [(("x", ("x",)), 1.0 + 0j)]


def test_logged_reply_builders():
    const = constant_reply("g")
    assert const.fn(1, BLANK) == [("g", 1.0 + 0j)]
    echo = echo_reply()
    assert echo.fn(3, "q") == [("q", 1.0 + 0j)]
    rot = rotation_reply("a", "b", -1)
    branches = dict(rot.fn(1, "a"))
    assert branches["a"] == pytest.approx(complex(H))
    assert branches["b"] == pytest.approx(complex(-H))
    # the received symbol lands in the step-indexed history cell
    out = rot.apply_quantum(2, "a", (BLANK, BLANK))
    tapes = {tape for ((_, tape), _) in out}
    assert tapes == {(BLANK, "a")}


def test_logged_reply_faults_name_the_strategy():
    const = constant_reply("g")
    with pytest.raises(SpaceExceeded, match=r"^strategy const:g: tape has 1 cells, step needs cell 1$"):
        const.apply_quantum(2, "a", (BLANK,))
    with pytest.raises(MissingTransition, match=r"^strategy const:g: history cell 0 already holds 'a'$"):
        const.apply_classical(1, "b", ("a",))


def test_logged_reply_labels_are_stable():
    assert constant_reply("g").label == "const:g"
    assert echo_reply().label == "echo"
    assert rotation_reply("a", "b").label == "rot:a+b"


_RELAY = ClassicalTableStrategy(
    work=1,
    rows={
        (BLANK, (BLANK,)): (BLANK, (BLANK,)),
        ("1", (BLANK,)): ("1", ("1",)),
        ("1", ("1",)): (BLANK, (BLANK,)),
    },
)
_HADAMARD_ON_WORK = UnitaryTableStrategy(work=1, steps={None: {
    ("a", (BLANK,)): [(("a", (BLANK,)), H), (("b", ("1",)), H)],
    ("a", ("1",)): [(("a", (BLANK,)), H), (("b", ("1",)), -H)],
}})
_PLAIN = (BLANK, "1", "a", "b")
_RELAYED = (BLANK, "1")
_TRACKS = make_track_alphabet(_RELAYED, (BLANK, "1", "a"))
# (strategy, channel symbols it has moves for), for every built-in strategy
# class that declares cells
_DECLARING = (
    (EraserStrategy(), _PLAIN),
    (_RELAY, _RELAYED),
    (ClassicalTableStrategy(work=0, rows={(BLANK, ()): (BLANK, ())}), (BLANK,)),
    (ReversibleWrapStrategy(inner=_RELAY, hist_offset=1), _RELAYED),
    (ReversibleWrapStrategy(inner=_RELAY, hist_offset=3), _RELAYED),
    (TrackWrapStrategy(inner=ReversibleWrapStrategy(inner=_RELAY, hist_offset=1), mask_offset=4), _TRACKS),
    (TrackWrapStrategy(inner=rotation_reply(BLANK, "1"), mask_offset=3), _TRACKS),
    (TrackWrapStrategy(inner=_RELAY, mask_offset=1), _TRACKS),
    (_HADAMARD_ON_WORK, ("a",)),
    (rotation_reply("a", "b", -1), _PLAIN),
    (echo_reply(), _PLAIN),
    (constant_reply("1"), _PLAIN),
)
# declared cells are mostly blank, so history cells are often free and the
# move is defined; undeclared cells get anything
_DECLARED_SYMBOLS = st.sampled_from((BLANK, BLANK, "1"))
_NOISE = st.sampled_from((BLANK, "1", "a", "b", "zz"))


def _move(strategy, step, comm, tape, quantum):
    """The strategy's column, or the type of what it raised."""
    try:
        if quantum:
            return strategy.apply_quantum(step, comm, tape)
        return [(strategy.apply_classical(step, comm, tape), 1.0 + 0j)]
    except QmipError as exc:
        return type(exc)


@settings(max_examples=200)
@given(
    pick=st.integers(0, 11),
    kept=st.lists(_DECLARED_SYMBOLS, min_size=9, max_size=9),
    noise=st.lists(_NOISE, min_size=9, max_size=9),
    other_noise=st.lists(_NOISE, min_size=9, max_size=9),
)
def test_moves_never_read_or_write_undeclared_cells(pick, kept, noise, other_noise):
    # the contract that lets the engine fold dead cells: put anything in the
    # cells a move does not declare and nothing it returns may change
    for strategy, channel in _DECLARING:
        comm = channel[pick % len(channel)]
        for step, space, quantum in itertools.product(range(1, 5), (9, 4), (True, False)):
            declared = {i for i in strategy.cells(step) if i < space}
            undeclared = [i for i in range(space) if i not in declared]
            tape = tuple(kept[i] if i in declared else noise[i] for i in range(space))
            perturbed = tuple(kept[i] if i in declared else other_noise[i] for i in range(space))
            plain = _move(strategy, step, comm, tape, quantum)
            noisy = _move(strategy, step, comm, perturbed, quantum)
            where = (strategy, step, comm, tape, perturbed, quantum)
            if isinstance(plain, type) or isinstance(noisy, type):
                assert plain == noisy, where
                continue
            assert len(plain) == len(noisy), where
            for ((reply, new), amp), ((noisy_reply, noisy_new), noisy_amp) in zip(plain, noisy):
                assert (reply, amp) == (noisy_reply, noisy_amp), where
                assert len(new) == len(noisy_new) == space, where
                assert all(new[i] == noisy_new[i] for i in declared), where
                assert all(new[i] == tape[i] and noisy_new[i] == perturbed[i] for i in undeclared), where


def test_strategies_without_declared_cells_cover_the_whole_tape():
    class Opaque:
        def apply_quantum(self, step, comm, tape):
            return [((comm, tape), 1.0 + 0j)]

    assert declared_cells(DerandomizedStrategy(choices={}), 1) is None
    assert declared_cells(_Forced(echo_reply(), {}), 1) is None
    assert declared_cells(Opaque(), 1) is None
    assert declared_cells(TrackWrapStrategy(inner=Opaque(), mask_offset=2), 1) is None
    assert declared_cells(TrackWrapStrategy(inner=DerandomizedStrategy(choices={}), mask_offset=2), 1) is None
    assert declared_cells(TrackWrapStrategy(inner=echo_reply(), mask_offset=2), 3) == (2, 4)
    assert declared_cells(ReversibleWrapStrategy(inner=_RELAY, hist_offset=1), 2) == (0, 2)


def test_guard_state_naming():
    assert guard_state("rej", "q0", "0") == "rej[q0|0]"


# ---------------------------------------------------------------- guards


def _mini_verifier(fallback=None, comm=("#", "g")):
    return VerifierSpec(
        mode="1qfa",
        states=("q0", "acc", "rej", "rejf[q0|¢]", "rejt[q0|¢]"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej", "rejf[q0|¢]", "rejt[q0|¢]"}),
        input_alphabet=("0",),
        comm_alphabets=(tuple(comm),),
        rows={("q0", LEFT_END, ("#",)): (("acc", 1, ("#",), 1.0 + 0j),)},
        fallback=fallback,
    )


def test_foreign_guard_matches_only_outside_base():
    guard = ForeignGuard(slot_bases=(("#", "g"),), known_states=frozenset({"rejf[q0|¢]"}))
    v = _mini_verifier(guard)
    # in-base reception goes through the explicit row
    branches = v.lookup("q0", LEFT_END, ("#",))
    assert branches[0][0] == "acc"
    # foreign reception is echoed into the guard state
    branches = v.lookup("q0", LEFT_END, ("~0",))
    assert branches == (("rejf[q0|¢]", 1, ("~0",), 1.0 + 0j),)
    # guard cannot invent a state it was not given
    guard2 = ForeignGuard(slot_bases=(("#", "g"),), known_states=frozenset())
    v2 = _mini_verifier(guard2)
    with pytest.raises(MissingTransition):
        v2.lookup("q0", LEFT_END, ("~0",))


def test_track_guard_matches_bad_lower_and_foreign_upper():
    guard = TrackGuard(slot_bases=(("#", "g"),), known_states=frozenset({"rejt[q0|¢]"}))
    v = _mini_verifier(guard, comm=make_track_alphabet(("#", "g"), ("#", "g")))
    # a leftover mask in the lower layer is rejected
    branches = v.lookup("q0", LEFT_END, (track("g", "g"),))
    assert branches == (("rejt[q0|¢]", 1, (track("g", "g"),), 1.0 + 0j),)
    # an upper symbol outside the slot base is rejected even with blank lower
    branches = v.lookup("q0", LEFT_END, (track("zz", BLANK),))
    assert branches[0][0] == "rejt[q0|¢]"
    # well-shaped receptions fall through to MissingTransition, not the guard
    with pytest.raises(MissingTransition):
        v.lookup("q0", LEFT_END, (track("g", BLANK),))


def test_guard_verdicts_are_per_slot_and_decide_matches():
    track_guard = TrackGuard(slot_bases=(("#", "g"), ("#",)), known_states=frozenset({"rejt[q0|¢]"}))
    assert not track_guard.rejects(0, track("g", BLANK))
    assert track_guard.rejects(1, track("g", BLANK))
    assert track_guard.rejects(0, track("g", "g")) and track_guard.rejects(0, "g")
    assert not track_guard.matches((track("g", BLANK), BLANK))
    assert track_guard.matches((track("g", BLANK), track("g", BLANK)))
    foreign = ForeignGuard(slot_bases=(("#", "g"), ("#",)), known_states=frozenset())
    assert [foreign.rejects(slot, "g") for slot in (0, 1)] == [False, True]
    assert foreign.matches(("#", "g")) and not foreign.matches(("g", "#"))
    # target names the state emit moves to, or None where emit would fault
    assert track_guard.target("q0", LEFT_END) == "rejt[q0|¢]"
    assert track_guard.target("q1", LEFT_END) is None
    assert foreign.target("q0", LEFT_END) is None


# ---------------------------------------------------------------- validation


def _mute_prover(comm=("#",)):
    return ProverSpec(
        index=1,
        comm_alphabet=tuple(comm),
        tape_alphabet=("#",),
        space=0,
        strategy=ClassicalTableStrategy(work=0, rows={(c, ()): (c, ()) for c in comm}),
    )


def _tiny_protocol(rows=None, mode="1pfa", weight=1.0):
    verifier = VerifierSpec(
        mode=mode,
        states=("q0", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(("#",),),
        rows=rows
        if rows is not None
        else {("q0", LEFT_END, ("#",)): (("acc", 1, ("#",), weight),)},
        fallback=None,
    )
    return ProtocolSpec(
        name="tiny", verifier=verifier, provers=(_mute_prover(),), a=1.0, b=1.0, cutoff=1
    )


def test_validate_protocol_accepts_tiny():
    validate_protocol(_tiny_protocol())


def test_validate_protocol_rejects_unknown_state():
    rows = {("q0", LEFT_END, ("#",)): (("ghost", 1, ("#",), 1.0),)}
    with pytest.raises(ValidationError):
        validate_protocol(_tiny_protocol(rows=rows))


def test_validate_protocol_rejects_backward_move_in_one_way_mode():
    rows = {("q0", LEFT_END, ("#",)): (("acc", -1, ("#",), 1.0),)}
    with pytest.raises(ValidationError):
        validate_protocol(_tiny_protocol(rows=rows))
    # a two-way machine may move left
    validate_protocol(_tiny_protocol(rows=rows, mode="2pfa"))


def test_validate_protocol_rejects_prover_count_mismatch():
    p = _tiny_protocol()
    broken = ProtocolSpec(
        name=p.name, verifier=p.verifier, provers=(), a=p.a, b=p.b, cutoff=p.cutoff
    )
    with pytest.raises(ValidationError):
        validate_protocol(broken)


@pytest.mark.parametrize("count", [1, 3])
def test_validate_protocol_rejects_a_guard_with_the_wrong_number_of_slot_bases(count):
    # with one base, `matches` never read slot 2: the run gave 0.5 on "0"
    # while a sweep found no row for ('c0', '0', ('#', '[g/#]'))
    p = corpus.build("no_comm_reduce")
    g = p.verifier.fallback
    guard = TrackGuard(slot_bases=(g.slot_bases * 2)[:count], known_states=g.known_states)
    bad = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, fallback=guard))
    with pytest.raises(ValidationError, match=f"^track-guard has {count} slot bases for 2 cells$"):
        validate_protocol(bad)


def test_validate_protocol_rejects_noninjective_table_under_quantum_verifier():
    rows = {("q0", LEFT_END, ("#", "#")): (("acc", 1, ("#", "#"), 1.0 + 0j),)}
    verifier = VerifierSpec(
        mode="1qfa",
        states=("q0", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(("#", "u", "v"), ("#",)),
        rows=rows,
        fallback=None,
    )
    merging = ClassicalTableStrategy(
        work=0, rows={("#", ()): ("#", ()), ("u", ()): ("#", ()), ("v", ()): ("#", ())}
    )
    p1 = ProverSpec(
        index=1, comm_alphabet=("#", "u", "v"), tape_alphabet=("#",), space=0, strategy=merging
    )
    p2 = _mute_prover()
    p2 = ProverSpec(
        index=2,
        comm_alphabet=p2.comm_alphabet,
        tape_alphabet=p2.tape_alphabet,
        space=p2.space,
        strategy=p2.strategy,
    )
    p = ProtocolSpec(name="ni", verifier=verifier, provers=(p1, p2), a=1.0, b=1.0, cutoff=1)
    with pytest.raises(ValidationError):
        validate_protocol(p)


def test_check_well_formed_classical_rows_are_stochastic():
    assert check_well_formed(_tiny_protocol().verifier)
    report = check_well_formed(_tiny_protocol(weight=0.9).verifier)
    assert not report.ok
    assert report.violations


def test_check_well_formed_quantum_orthogonality():
    rows = {
        ("q0", LEFT_END, ("#",)): (("acc", 1, ("#",), complex(H)), ("rej", 1, ("#",), complex(H))),
        ("q0", "0", ("#",)): (("acc", 1, ("#",), complex(H)), ("rej", 1, ("#",), complex(-H))),
    }
    assert check_well_formed(_tiny_protocol(rows=rows, mode="1qfa").verifier)
    # two columns under the same scanned symbol that share a full target
    # (state, move, sent tuple) cannot be orthogonal
    overlapping = {
        ("q0", LEFT_END, ("#",)): (("acc", 1, ("#",), complex(H)), ("rej", 1, ("#",), complex(H))),
        ("q0", LEFT_END, ("g",)): (("acc", 1, ("#",), 1.0 + 0j),),
    }
    verifier = VerifierSpec(
        mode="1qfa",
        states=("q0", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(("#", "g"),),
        rows=overlapping,
        fallback=None,
    )
    report = check_well_formed(verifier)
    assert not report.ok


def test_rows_on_different_input_symbols_need_not_be_orthogonal():
    # columns are grouped per scanned symbol; the same received tuple under
    # different symbols may map to the same target
    rows = {
        ("q0", LEFT_END, ("#",)): (("acc", 1, ("#",), 1.0 + 0j),),
        ("q0", "0", ("#",)): (("acc", 1, ("#",), 1.0 + 0j),),
    }
    assert check_well_formed(_tiny_protocol(rows=rows, mode="1qfa").verifier)


def test_check_restrictive_counts_branches():
    rows = {
        ("q0", LEFT_END, ("#",)): (
            ("acc", 1, ("#",), complex(H)),
            ("rej", 1, ("#",), complex(H)),
        )
    }
    assert check_restrictive(_tiny_protocol(rows=rows, mode="1qfa").verifier)
    three = {
        ("q0", LEFT_END, ("#",)): (
            ("acc", 1, ("#",), 0.5 + 0j),
            ("rej", 1, ("#",), 0.5 + 0j),
            ("q0", 1, ("#",), complex(H)),
        )
    }
    assert not check_restrictive(_tiny_protocol(rows=three, mode="1qfa").verifier)


def test_fair_coin_violations():
    fair = {
        ("q0", LEFT_END, ("#",)): (("acc", 1, ("#",), 0.5), ("rej", 1, ("#",), 0.5)),
    }
    assert fair_coin_violations(_tiny_protocol(rows=fair).verifier) == []
    biased = {
        ("q0", LEFT_END, ("#",)): (("acc", 1, ("#",), 0.3), ("rej", 1, ("#",), 0.7)),
    }
    assert fair_coin_violations(_tiny_protocol(rows=biased).verifier)


@pytest.mark.parametrize("mode, weight", [("1qfa", H), ("1pfa", 0.5)])
def test_a_nan_weight_is_never_well_formed(mode, weight):
    row = (("acc", 1, ("#",), complex(math.nan)), ("rej", 1, ("#",), complex(weight)))
    verifier = _tiny_protocol(rows={("q0", LEFT_END, ("#",)): row}, mode=mode).verifier
    assert not check_well_formed(verifier)
    normal_form = restrictive_violations if mode == "1qfa" else fair_coin_violations
    assert normal_form(verifier)


_GRAM_TARGETS = tuple((q, d, ()) for q in ("a", "b", "c") for d in (-1, 1))
# unit rows as often as free ones, so that whole groups pass as well as fail
_GRAM_ROW = st.one_of(
    st.tuples(st.sampled_from(_GRAM_TARGETS), st.sampled_from((1.0, -1.0))).map(lambda branch: [branch]),
    st.lists(st.tuples(st.sampled_from(_GRAM_TARGETS), st.sampled_from((1.0, -1.0, 0.5, -0.5, H, -H))),
             min_size=1, max_size=3),
)


def _two_way_without_provers(rows):
    sources = tuple(dict.fromkeys(q for q, _, _ in rows))
    return VerifierSpec(mode="2qfa", states=sources + ("a", "b", "c"), initial=sources[0], accept=frozenset(),
                        reject=frozenset(), input_alphabet=("0",), comm_alphabets=(), rows=rows)


@settings(max_examples=200)
@given(groups=st.fixed_dictionaries({sigma: st.lists(_GRAM_ROW, min_size=2, max_size=6) for sigma in (LEFT_END, "0")}))
def test_the_orthonormality_kernel_agrees_with_the_dense_gram_matrix(groups):
    # targets come from a pool of six, so rows repeat a target (summed) and
    # share targets with each other; the sparse kernel must flag exactly the
    # entries where the dense Gram matrix of a group is off the identity
    import numpy as np

    column = {target: i for i, target in enumerate(_GRAM_TARGETS)}
    rows = {}
    total = 0
    for sigma, group in groups.items():
        dense = np.zeros((len(group), len(column)), dtype=complex)
        for i, row in enumerate(group):
            rows[(f"q{i}", sigma, ())] = tuple((q2, d, out, complex(w)) for (q2, d, out), w in row)
            for target, w in row:
                dense[i, column[target]] += w
        off = np.abs(dense.conj() @ dense.T - np.eye(len(group))) > ORTHO_TOL
        want = int(np.diag(off).sum() + np.triu(off, 1).sum())
        report = check_well_formed(_two_way_without_provers({k: r for k, r in rows.items() if k[1] == sigma}))
        assert report.ok == (want == 0)
        assert len(report.violations) == want
        total += want
    assert len(check_well_formed(_two_way_without_provers(rows)).violations) == total


def test_check_prover_columns_accepts_unitary_strategies():
    prover = ProverSpec(
        index=1,
        comm_alphabet=("#", "a", "b"),
        tape_alphabet=("#", "a", "b"),
        space=2,
        strategy=rotation_reply("a", "b"),
    )
    report = check_prover_columns(prover, 1, [(BLANK, BLANK)])
    assert report.ok


def test_check_prover_columns_flags_norm_loss():
    lossy = LoggedReplyStrategy("lossy", lambda step, recv: [(BLANK, 0.5 + 0j)])
    prover = ProverSpec(
        index=1, comm_alphabet=("#",), tape_alphabet=("#",), space=1, strategy=lossy
    )
    report = check_prover_columns(prover, 1, [(BLANK,)])
    assert not report.ok


def test_check_prover_columns_flags_colliding_columns():
    # two received symbols mapped onto the same (reply, tape) basis state
    collide = LoggedReplyStrategy("collide", lambda step, recv: [("z", 1.0 + 0j)])

    class NoLog:
        def apply_quantum(self, step, comm, tape):
            return [(("z", tape), 1.0 + 0j)]

    prover = ProverSpec(
        index=1, comm_alphabet=("#", "z"), tape_alphabet=("#", "z"), space=1, strategy=NoLog()
    )
    report = check_prover_columns(prover, 1, [(BLANK,)])
    assert not report.ok
    del collide


# ---------------------------------------------------------------- misc


def test_endmarkers_are_distinct_from_blank():
    assert len({BLANK, LEFT_END, RIGHT_END}) == 3


def test_error_taxonomy():
    assert issubclass(NotReversible, ValidationError)
    assert issubclass(AlphabetMismatch, ValidationError)
