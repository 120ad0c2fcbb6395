import dataclasses
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmipsim import corpus
from qmipsim.adversary import default_families, search
from qmipsim.amplitudes import CONSERVATION_TOL, PRUNE_TOL, apply_sparse_operator
from qmipsim.engine import (
    Configuration,
    _check_round,
    _rounds,
    _verify_and_measure,
    initial_state,
    input_tape,
    prover_operator,
    run,
    run_classical,
    run_round,
    simulate,
    verifier_operator,
)
from qmipsim.errors import InvalidInput, MissingTransition, QmipError, RunFault, ValidationError
from qmipsim.specs import (
    BLANK,
    LEFT_END,
    RIGHT_END,
    ClassicalTableStrategy,
    LoggedReplyStrategy,
    ProtocolSpec,
    ProverSpec,
    UnitaryTableStrategy,
    VerifierSpec,
    rotation_reply,
)
from qmipsim.transforms import lift_2ip_to_3qip, make_eraser, reduce_3qip_to_2qip, unify_alphabets

H = 1 / math.sqrt(2)


def _mute_prover():
    return ProverSpec(
        index=1,
        comm_alphabet=("#",),
        tape_alphabet=("#",),
        space=0,
        strategy=ClassicalTableStrategy(work=0, rows={("#", ()): ("#", ())}),
    )


def test_input_tape_is_bracketed_by_endmarkers():
    v = corpus.build("no_comm").verifier
    assert input_tape("0", v) == (LEFT_END, "0", RIGHT_END)
    assert input_tape("", v) == (LEFT_END, RIGHT_END)


def test_input_tape_rejects_foreign_symbols():
    v = corpus.build("no_comm").verifier
    with pytest.raises(InvalidInput):
        input_tape("7", v)


def test_always_accept_halts_in_one_round():
    for name in ("always_accept_classical", "always_accept_quantum"):
        result = simulate(corpus.build(name), "")
        assert result.p_accept == pytest.approx(1.0, abs=1e-12)
        assert result.halted_round == 1
        assert result.steps_counted == 1
        assert result.leftover == pytest.approx(0.0, abs=1e-12)


def test_coinflip_is_exactly_half():
    for name in ("coinflip_classical", "coinflip_quantum"):
        result = simulate(corpus.build(name), "0")
        assert result.p_accept == pytest.approx(0.5, abs=1e-12)
        assert result.p_reject == pytest.approx(0.5, abs=1e-12)


def test_no_comm_honest_value_and_step_count():
    result = simulate(corpus.build("no_comm"), "0")
    assert result.p_accept == pytest.approx(0.5, abs=1e-12)
    assert result.halted_round == 2
    # two rounds, two provers: 2*(2+1) - 2
    assert result.steps_counted == 4
    assert result.outcome == "tie"


def test_parity_relay_accepts_honest_runs():
    # the relay prover always matches the verifier's own parity, so the
    # consistency check passes on every input length
    p = corpus.build("parity_relay")
    for x in ("", "1", "11"):
        result = simulate(p, x)
        assert result.p_accept == pytest.approx(1.0, abs=1e-12)
        # one sweep: a round per tape cell, two provers moving from round 2 on
        rounds = len(x) + 2
        assert result.halted_round == rounds
        assert result.steps_counted == 3 * rounds - 2


def test_round_stats_account_for_all_mass():
    result = simulate(corpus.build("no_comm"), "0")
    assert len(result.rounds) == result.halted_round
    assert result.rounds[0].index == 1
    total = sum(r.p_accept for r in result.rounds)
    assert total == pytest.approx(result.p_accept, abs=CONSERVATION_TOL)
    assert result.rounds[-1].residual_mass == pytest.approx(0.0, abs=1e-12)


def test_cutoff_leaves_unresolved_mass():
    p = dataclasses.replace(corpus.build("no_comm"), cutoff=1)
    result = simulate(p, "0")
    assert result.halted_round is None
    assert result.p_accept == 0.0
    assert result.leftover == pytest.approx(1.0, abs=1e-12)
    assert result.steps_counted == 1


def test_cutoff_override_argument_wins():
    result = simulate(corpus.build("no_comm"), "0", cutoff=1)
    assert result.halted_round is None
    assert result.leftover == pytest.approx(1.0, abs=1e-12)


def test_head_wraps_around_both_endmarkers():
    # empty input: tape is (cent, dollar), so -1 from cell 0 lands on the
    # right endmarker and +1 from cell 1 lands back on the left one
    verifier = VerifierSpec(
        mode="2pfa",
        states=("w0", "w1", "w2", "acc", "rej"),
        initial="w0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(("#",),),
        rows={
            ("w0", LEFT_END, ("#",)): (("w1", -1, ("#",), 1.0),),
            ("w1", RIGHT_END, ("#",)): (("w2", 1, ("#",), 1.0),),
            ("w2", LEFT_END, ("#",)): (("acc", 1, ("#",), 1.0),),
        },
        fallback=None,
    )
    p = ProtocolSpec(
        name="wrap", verifier=verifier, provers=(_mute_prover(),), a=1.0, b=1.0, cutoff=4
    )
    result = run_classical(p, "")
    assert result.p_accept == pytest.approx(1.0)
    assert result.halted_round == 3


def test_run_refuses_wrong_engine_for_mode():
    with pytest.raises(ValidationError):
        run(corpus.build("no_comm"), "0")
    with pytest.raises(ValidationError):
        run_classical(corpus.build("coinflip_quantum"), "0")


def test_missing_row_surfaces_as_missing_transition():
    verifier = VerifierSpec(
        mode="1pfa",
        states=("q0", "q1", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(("#",),),
        rows={("q0", LEFT_END, ("#",)): (("q1", 1, ("#",), 1.0),)},
        fallback=None,
    )
    p = ProtocolSpec(
        name="gap", verifier=verifier, provers=(_mute_prover(),), a=1.0, b=1.0, cutoff=3
    )
    with pytest.raises(MissingTransition):
        run_classical(p, "0")


def test_mass_drift_is_a_run_fault():
    verifier = VerifierSpec(
        mode="1qfa",
        states=("q0", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(("#",),),
        rows={("q0", LEFT_END, ("#",)): (("acc", 1, ("#",), 0.9 + 0j),)},
        fallback=None,
    )
    p = ProtocolSpec(
        name="lossy", verifier=verifier, provers=(_mute_prover(),), a=1.0, b=1.0, cutoff=2
    )
    with pytest.raises(RunFault):
        run(p, "0")


def test_a_measurement_that_loses_mass_is_a_run_fault():
    with pytest.raises(RunFault, match="measurement at round 2 lost probability mass"):
        _check_round(2, 1.0, 1.0, 0.5, 0.5 - 1e-10, 0.0)
    # rounding drift well inside CONSERVATION_TOL passes
    _check_round(2, 1.0, 1.0, 0.5, 0.5 - 1e-13, 0.0)


def test_a_protocol_without_provers_runs_and_sweeps_past_round_1():
    # round 2 has no prover to move; the verifier flips its coin on the 0
    verifier = VerifierSpec(
        mode="1pfa",
        states=("q0", "q1", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(),
        rows={
            ("q0", LEFT_END, ()): (("q1", 1, (), 1.0),),
            ("q1", "0", ()): (("acc", 1, (), 0.5), ("rej", 1, (), 0.5)),
            ("q1", RIGHT_END, ()): (("rej", 1, (), 1.0),),
        },
        fallback=None,
    )
    p = ProtocolSpec(name="proverless", verifier=verifier, provers=(), a=0.5, b=0.5, cutoff=3)
    result = run_classical(p, "0")
    assert (result.p_accept, result.p_reject, result.halted_round) == (0.5, 0.5, 2)
    assert result.steps_counted == 2
    swept = search(p, "0", keep_table=True)
    assert swept.evaluated == 1
    assert swept.best_labels == ()
    assert swept.table == [((), 0.5, 0.5)]


# -- the fused verifier stage and measurement ---------------------------------


def _two_way(rows, states, comm=(BLANK,)):
    return VerifierSpec(
        mode="2qfa",
        states=states + ("acc", "rej"),
        initial=states[0],
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(comm,),
        rows=rows,
        fallback=None,
    )


def _with_eraser(verifier, cutoff=3):
    prover = make_eraser(1, verifier.comm_alphabets[0], space=cutoff, cutoff=cutoff)
    return ProtocolSpec(name="fused", verifier=verifier, provers=(prover,), a=1.0, b=1.0, cutoff=cutoff)


def _at(state, head=0):
    return Configuration(state, head, (BLANK,), ((),))


def test_verify_and_measure_splits_mass():
    verifier = _two_way(
        {
            ("qa", LEFT_END, (BLANK,)): (("acc", 0, (BLANK,), 1.0),),
            ("qb", LEFT_END, (BLANK,)): (("rej", 0, (BLANK,), 1.0),),
        },
        ("qa", "qb"),
    )
    state = {_at("qa"): complex(H), _at("qb"): complex(0, H)}
    after, p_acc, p_rej, residual = _verify_and_measure(state, verifier, (LEFT_END, RIGHT_END), True)
    assert after == pytest.approx(1.0)
    assert p_acc == pytest.approx(0.5)
    assert p_rej == pytest.approx(0.5)
    assert residual == {}


def test_verify_and_measure_residual_stays_unnormalized():
    verifier = _two_way(
        {
            ("qa", LEFT_END, (BLANK,)): (("acc", 0, (BLANK,), 1.0),),
            ("qm", LEFT_END, (BLANK,)): (("mid", 0, (BLANK,), 1.0),),
        },
        ("qa", "qm", "mid"),
    )
    state = {_at("qa"): 0.5 + 0j, _at("qm"): 0.5 + 0j}
    after, p_acc, p_rej, residual = _verify_and_measure(state, verifier, (LEFT_END, RIGHT_END), True)
    assert after == pytest.approx(0.5)
    assert p_acc == pytest.approx(0.25)
    assert p_rej == 0.0
    assert residual == {_at("mid"): 0.5 + 0j}


def test_verify_and_measure_reads_each_head_and_prunes_cancellations():
    # the same state and cells at two heads scan different symbols; at head
    # 0 the two branches into "mid" cancel and leave no residual entry
    verifier = _two_way(
        {
            ("qm", LEFT_END, (BLANK,)): (("mid", 1, (BLANK,), H), ("mid", 1, (BLANK,), -H)),
            ("qm", "0", (BLANK,)): (("acc", 0, (BLANK,), 1.0),),
        },
        ("qm", "mid"),
    )
    state = {_at("qm", 0): 0.6 + 0j, _at("qm", 1): 0.8 + 0j}
    after, p_acc, p_rej, residual = _verify_and_measure(state, verifier, (LEFT_END, "0", RIGHT_END), True)
    assert p_acc == pytest.approx(0.64)
    assert after == pytest.approx(0.64)
    assert residual == {}


def test_halting_targets_interfere_inside_one_tape_group():
    # two Hadamards in a row: both round-2 sources sit on the same tapes,
    # so their rejecting branches cancel and their accepting ones add up
    verifier = _two_way(
        {
            ("q0", LEFT_END, (BLANK,)): (("qa", 1, (BLANK,), H), ("qb", 1, (BLANK,), H)),
            ("qa", "0", (BLANK,)): (("acc", 0, (BLANK,), H), ("rej", 0, (BLANK,), H)),
            ("qb", "0", (BLANK,)): (("acc", 0, (BLANK,), H), ("rej", 0, (BLANK,), -H)),
        },
        ("q0", "qa", "qb"),
    )
    result = run(_with_eraser(verifier), "0")
    assert result.p_accept == pytest.approx(1.0, abs=1e-12)
    assert result.p_reject == pytest.approx(0.0, abs=1e-12)
    assert result.halted_round == 2


def test_no_interference_across_tape_groups():
    # the verifier echoes the rotating prover's first reply back; the
    # prover logs the echo, so at round 3 the two sources replying "a" share
    # state, head and cells but not tapes, and their accepting branches
    # add as squares (1/4 + 1/4) rather than as amplitudes (|1/2 + 1/2|^2)
    comm = (BLANK, "a", "b")
    verifier = _two_way(
        {
            ("q0", LEFT_END, (BLANK,)): (("q1", 0, (BLANK,), 1.0),),
            ("q1", LEFT_END, ("a",)): (("q2", 0, ("a",), 1.0),),
            ("q1", LEFT_END, ("b",)): (("q2", 0, ("b",), 1.0),),
            ("q2", LEFT_END, ("a",)): (("acc", 0, (BLANK,), 1.0),),
            ("q2", LEFT_END, ("b",)): (("rej", 0, (BLANK,), 1.0),),
        },
        ("q0", "q1", "q2"),
        comm=comm,
    )
    prover = ProverSpec(index=1, comm_alphabet=comm, tape_alphabet=comm, space=2,
                        strategy=rotation_reply("a", "b"))
    p = ProtocolSpec(name="rotations", verifier=verifier, provers=(prover,), a=1.0, b=1.0, cutoff=3)
    result = run(p, "0")
    assert result.p_accept == pytest.approx(0.5, abs=1e-12)
    assert result.p_reject == pytest.approx(0.5, abs=1e-12)
    assert result.halted_round == 3


def test_collision_in_one_tape_group_is_a_run_fault():
    # qa and qb both land on (p, 1) with the same tapes: mass 1 -> 2
    verifier = _two_way(
        {
            ("q0", LEFT_END, (BLANK,)): (("qa", 0, (BLANK,), H), ("qb", 1, (BLANK,), H)),
            ("qa", LEFT_END, (BLANK,)): (("p", 1, (BLANK,), 1.0),),
            ("qb", "0", (BLANK,)): (("p", 0, (BLANK,), 1.0),),
        },
        ("q0", "qa", "qb", "p"),
    )
    with pytest.raises(RunFault, match="round 2"):
        run(_with_eraser(verifier), "0")


def test_moves_that_collide_on_the_two_cell_tape_are_a_run_fault():
    # on the tape of "" the moves +1 and -1 both reach cell 1; the two
    # branches would add as amplitudes and report p_accept 1
    verifier = _two_way(
        {("q0", LEFT_END, (BLANK,)): (("acc", 1, (BLANK,), H), ("acc", -1, (BLANK,), 1j * H))},
        ("q0",),
    )
    with pytest.raises(RunFault, match=r"state='q0'.*moves \+1 and -1 both land on .*state='acc'"):
        run(_with_eraser(verifier), "")
    # on a longer tape the two moves reach different cells
    assert run(_with_eraser(verifier), "0").p_accept == pytest.approx(1.0, abs=1e-12)


def test_classical_moves_on_the_two_cell_tape_add_their_probabilities():
    # a probabilistic head has no interference to lose: on the tape of ""
    # the +1 and -1 branches reach one cell and their probabilities add
    verifier = dataclasses.replace(
        _two_way(
            {("q0", LEFT_END, (BLANK,)): (("acc", 1, (BLANK,), 0.3), ("acc", -1, (BLANK,), 0.3),
                                          ("rej", 0, (BLANK,), 0.4))},
            ("q0",),
        ),
        mode="2pfa",
    )
    result = simulate(_with_eraser(verifier), "")
    assert result.p_accept == pytest.approx(0.6, abs=1e-12)
    assert result.p_reject == pytest.approx(0.4, abs=1e-12)


def test_a_key_error_in_a_prover_move_is_a_missing_transition():
    # a reply function that only knows some symbols fails like a table without the row
    verifier = _two_way(
        {
            ("q0", LEFT_END, (BLANK,)): (("q1", 1, (BLANK,), 1.0),),
            ("q1", "0", (BLANK,)): (("acc", 0, (BLANK,), 1.0),),
        },
        ("q0", "q1"),
    )
    picky = LoggedReplyStrategy("picky", lambda step, recv: {"a": [(BLANK, 1.0 + 0j)]}[recv])
    prover = ProverSpec(index=1, comm_alphabet=(BLANK,), tape_alphabet=(BLANK,), space=3, strategy=picky)
    p = ProtocolSpec(name="picky", verifier=verifier, provers=(prover,), a=1.0, b=1.0, cutoff=3)
    with pytest.raises(MissingTransition, match="state='q1'"):
        run(p, "0")


def test_no_comm_on_the_empty_input_is_still_a_fair_coin():
    result = simulate(corpus.build("no_comm"), "")
    assert result.p_accept == pytest.approx(0.5, abs=1e-12)
    assert result.p_reject == pytest.approx(0.5, abs=1e-12)


def test_tiny_single_member_prunes_like_the_staged_reference():
    # one member per tape group; at 1e-13 the 1e-3 branch falls below
    # PRUNE_TOL while the other survives, so the closed form must step aside
    verifier = _two_way(
        {
            ("qm", LEFT_END, (BLANK,)): (("m1", 0, (BLANK,), 0.6), ("m2", 1, (BLANK,), 1e-3),
                                         ("acc", 1, (BLANK,), 0.8)),
        },
        ("qm", "m1", "m2"),
    )
    p = _with_eraser(verifier)
    tape = (LEFT_END, "0", RIGHT_END)
    state = {
        Configuration("qm", 0, (BLANK,), (("x",),)): 1e-13 + 0j,
        Configuration("qm", 0, (BLANK,), (("y",),)): 0.5j,
    }
    assert 1e-13 * 1e-3 < PRUNE_TOL
    after, p_acc, p_rej, residual = _verify_and_measure(state, verifier, tape, True)
    want_acc, want_rej, want = _reference_round(p, tape, state, 1, True)
    assert set(residual) == set(want)
    assert Configuration("m2", 1, (BLANK,), (("x",),)) not in residual
    assert Configuration("m2", 1, (BLANK,), (("y",),)) in residual
    assert all(residual[c] == a for c, a in want.items())
    assert p_acc == pytest.approx(want_acc, abs=1e-12)
    assert p_rej == want_rej == 0.0


_STATES = ("q0", "q1", "q2")
_CELLS = (BLANK, "a")
_WEIGHTS = (1, -1, H, -H, 1j * H, 0.3, 0.6j)
_AMPLITUDES = st.builds(
    lambda size, phase: size * phase,
    st.sampled_from((1.0, 0.5, 1e-3, 2e-15, 1e-16)),
    st.sampled_from((1, -1, 1j, -1j, complex(H, H))),
)
_BRANCH = st.tuples(
    st.sampled_from(_STATES + ("acc", "rej")),
    st.sampled_from((-1, 0, 1)),
    st.sampled_from(_CELLS).map(lambda c: (c,)),
    st.sampled_from(_WEIGHTS),
)
_ROWS = st.fixed_dictionaries({
    (q, sigma, (c,)): st.lists(_BRANCH, min_size=1, max_size=3).map(tuple)
    for q in _STATES for sigma in (LEFT_END, "0", RIGHT_END) for c in _CELLS
})
_SOURCES = st.dictionaries(
    st.builds(
        lambda q, head, c, t: Configuration(q, head, (c,), ((t,),)),
        st.sampled_from(_STATES), st.integers(0, 2), st.sampled_from(_CELLS), st.sampled_from("xyz"),
    ),
    _AMPLITUDES,
    min_size=1,
    max_size=12,
)


@given(rows=_ROWS, state=_SOURCES)
def test_pass_matches_the_staged_reference_on_random_2qfa_states(rows, state):
    # random columns (duplicate targets and cancellations included) over up
    # to three tape groups of any size; nothing here is unitary, the pass
    # only has to agree with the staged verifier stage and split
    verifier = _two_way(rows, _STATES, comm=_CELLS)
    tape = (LEFT_END, "0", RIGHT_END)
    after, p_acc, p_rej, residual = _verify_and_measure(state, verifier, tape, True)
    want_acc, want_rej, want = _reference_round(_with_eraser(verifier), tape, state, 1, True)
    assert p_acc == pytest.approx(want_acc, abs=1e-12)
    assert p_rej == pytest.approx(want_rej, abs=1e-12)
    for c in set(residual) | set(want):
        assert abs(residual.get(c, 0j) - want.get(c, 0j)) <= 1e-12
    assert after == pytest.approx(p_acc + p_rej + sum(abs(a) ** 2 for a in residual.values()), abs=1e-12)


@lru_cache(maxsize=None)
def _lifted_parity_relay():
    return lift_2ip_to_3qip(corpus.parity_relay()).protocol


@lru_cache(maxsize=None)
def _reduced_parity_relay():
    return reduce_3qip_to_2qip(unify_alphabets(_lifted_parity_relay())).protocol


def _reference_round(p, tape, state, round_index, quantum):
    """A round as separate stages: sparse applies, then an accept/reject split."""
    if round_index >= 2:
        for prover in p.provers:
            state = apply_sparse_operator(prover_operator((prover,), round_index - 1, quantum), state)
    state = apply_sparse_operator(verifier_operator(p.verifier, tape), state)
    weight = (lambda a: abs(a) ** 2) if quantum else (lambda a: a.real)
    v = p.verifier
    p_acc = sum(weight(a) for c, a in state.items() if c.state in v.accept)
    p_rej = sum(weight(a) for c, a in state.items() if c.state in v.reject)
    residual = {c: a for c, a in state.items() if c.state not in v.accept | v.reject}
    return p_acc, p_rej, residual


def _two_rotating_provers():
    """Both provers answer (|a> + |b>)/sqrt 2; the verifier interferes their replies."""
    comm = (BLANK, "a", "b")
    none = (BLANK, BLANK)
    verifier = VerifierSpec(
        mode="2qfa",
        states=("q0", "q1", "mid", "late", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(comm, comm),
        rows={
            ("q0", LEFT_END, none): (("q1", 1, none, 1.0),),
            ("q1", "0", ("a", "a")): (("acc", 0, none, H), ("mid", 0, none, H)),
            ("q1", "0", ("a", "b")): (("acc", 0, none, H), ("mid", 0, none, -H)),
            ("q1", "0", ("b", "a")): (("late", 0, none, 1.0),),
            ("q1", "0", ("b", "b")): (("rej", 0, none, 1.0),),
            **{("late", "0", (x, y)): (("acc", 0, (x, y), 1.0),) for x in ("a", "b") for y in ("a", "b")},
        },
        fallback=None,
    )
    provers = tuple(
        ProverSpec(index=i, comm_alphabet=comm, tape_alphabet=comm, space=3, strategy=rotation_reply("a", "b"))
        for i in (1, 2)
    )
    return ProtocolSpec(name="two_rotations", verifier=verifier, provers=provers, a=1.0, b=1.0, cutoff=3)


def _hadamard_prover():
    """The verifier sends (|a> + |b>)/sqrt 2; a Hadamard prover turns it into |a>."""
    comm = (BLANK, "a", "b")
    verifier = _two_way(
        {
            ("q0", LEFT_END, (BLANK,)): (("q1", 1, ("a",), H), ("q1", 1, ("b",), H)),
            ("q1", "0", ("a",)): (("acc", 0, (BLANK,), 1.0),),
            ("q1", "0", ("b",)): (("rej", 0, (BLANK,), 1.0),),
        },
        ("q0", "q1"),
        comm=comm,
    )
    hadamard = UnitaryTableStrategy(work=0, steps={None: {
        ("a", ()): [(("a", ()), H), (("b", ()), H)],
        ("b", ()): [(("a", ()), H), (("b", ()), -H)],
    }})
    prover = ProverSpec(index=1, comm_alphabet=comm, tape_alphabet=comm, space=0, strategy=hadamard)
    return ProtocolSpec(name="hadamard_prover", verifier=verifier, provers=(prover,), a=1.0, b=1.0, cutoff=2)


_BUILT = {
    "parity_relay_lift": _lifted_parity_relay,
    "parity_relay_reduced": _reduced_parity_relay,
    "two_rotations": _two_rotating_provers,
    "hadamard_prover": _hadamard_prover,
}


def _protocol(name):
    return _BUILT[name]() if name in _BUILT else corpus.build(name)


def test_extra_reference_protocols_give_their_expected_values():
    two = simulate(_two_rotating_provers(), "0")
    assert (two.p_accept, two.p_reject) == (pytest.approx(0.75, abs=1e-12), pytest.approx(0.25, abs=1e-12))
    assert [r.configurations for r in two.rounds] == [1, 1, 0]
    hadamard = simulate(_hadamard_prover(), "0")
    assert hadamard.p_accept == pytest.approx(1.0, abs=1e-12)
    assert hadamard.p_reject == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "name, x",
    [(name, x) for name in sorted(corpus.REGISTRY) for x in corpus.test_inputs(name)]
    + [("parity_relay_reduced", "1"), ("parity_relay_reduced", "11"), ("two_rotations", "0"),
       ("hadamard_prover", "0")],
)
def test_fused_round_matches_staged_reference(name, x):
    p = _protocol(name)
    quantum = p.verifier.is_quantum()
    tape = input_tape(x, p.verifier)
    state = initial_state(p, x)
    for stat in simulate(p, x).rounds:
        want_acc, want_rej, want = _reference_round(p, tape, state, stat.index, quantum)
        p_acc, p_rej, state = run_round(p, tape, state, stat.index, quantum)
        assert p_acc == pytest.approx(want_acc, abs=1e-12)
        assert p_rej == pytest.approx(want_rej, abs=1e-12)
        assert set(state) == set(want)
        assert all(abs(state[c] - a) <= 1e-12 for c, a in want.items())
        assert stat.configurations == len(want)


# ---------------------------------------------------------------- history classes


class _Hidden:
    """A strategy with its cells hidden, so the engine keeps its whole tape live."""

    def __init__(self, inner):
        self.inner = inner

    def apply_quantum(self, step, comm, tape):
        return self.inner.apply_quantum(step, comm, tape)

    def apply_classical(self, step, comm, tape):
        return self.inner.apply_classical(step, comm, tape)


def _hiding_cells(p):
    provers = tuple(dataclasses.replace(pr, strategy=_Hidden(pr.strategy)) for pr in p.provers)
    return dataclasses.replace(p, provers=provers)


def _outcome(p, x):
    try:
        return simulate(p, x)
    except QmipError as exc:
        return type(exc)


def _assert_agree(p, x):
    """The folded run and the whole-tape run of p agree, faults included."""
    folded, whole = _outcome(p, x), _outcome(_hiding_cells(p), x)
    if isinstance(folded, type) or isinstance(whole, type):
        assert folded == whole
        return
    for field in ("p_accept", "p_reject", "leftover"):
        assert abs(getattr(folded, field) - getattr(whole, field)) <= 1e-12, field
    assert [r.configurations for r in folded.rounds] == [r.configurations for r in whole.rounds]
    assert folded.halted_round == whole.halted_round


@pytest.mark.parametrize(
    "name, x",
    [(name, x) for name in sorted(corpus.REGISTRY) for x in corpus.test_inputs(name)]
    + [("parity_relay_reduced", x) for x in ("", "1", "11")] + [("two_rotations", "0")],
)
def test_history_classes_agree_with_the_whole_tape_run(name, x):
    _assert_agree(_protocol(name), x)


@pytest.mark.parametrize(
    "name, x",
    [(name, x) for name in sorted(corpus.REGISTRY) for x in corpus.test_inputs(name)]
    + [("parity_relay_reduced", "111")],
)
def test_resuming_the_driver_yields_the_rest_of_the_run(name, x):
    p = _protocol(name)
    quantum = p.verifier.is_quantum()
    whole = list(_rounds(p, x, p.cutoff, quantum))
    if name == "parity_relay_reduced":
        assert any(c.multiplicity > 1 for _, classes in whole for c in classes)
    for j, pair in enumerate(whole):
        assert list(_rounds(p, x, p.cutoff, quantum, after=pair)) == whole[j + 1:], j + 1


_SWEPT = {
    "no_comm_lift": ("", "0", "00"),
    "no_comm_reduce": ("", "0", "00"),
    "parity_relay": ("", "1", "11", "111"),
    # the relay's lift and reduction run long enough for dead cells to fold
    "parity_relay_lift": ("1", "11", "111"),
    "parity_relay_reduced": ("1", "11", "111"),
}


@lru_cache(maxsize=None)
def _default_strategies(name, cutoff):
    return tuple(fam.strategies for fam in default_families(_protocol(name), cutoff))


def _rotation(alphabet):
    """A member of `rotation_family` over `alphabet`, drawn by its two symbols and sign."""
    if len(alphabet) < 2:
        return st.nothing()
    pair = st.lists(st.sampled_from(range(len(alphabet))), min_size=2, max_size=2, unique=True).map(sorted)
    return st.builds(lambda ij, sign: rotation_reply(alphabet[ij[0]], alphabet[ij[1]], sign), pair,
                     st.sampled_from((1, -1)))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_SWEPT)), cutoff=st.integers(2, 4), data=st.data())
def test_sweep_combinations_agree_with_the_whole_tape_run(name, cutoff, data):
    # each prover plays a default-family member, a rotation, or its honest
    # strategy; honest provers keep runs of the relay alive long enough to fold
    p = _protocol(name)
    families = _default_strategies(name, cutoff)
    provers = tuple(
        dataclasses.replace(
            prover,
            strategy=data.draw(st.one_of(st.sampled_from(family + (prover.strategy,)), _rotation(alphabet))),
            space=max(prover.space, cutoff),
        )
        for prover, family, alphabet in zip(p.provers, families, p.verifier.comm_alphabets)
    )
    trial = dataclasses.replace(p, provers=provers, cutoff=cutoff)
    _assert_agree(trial, data.draw(st.sampled_from(_SWEPT[name])))


def test_a_drift_spread_over_merged_histories_is_still_a_run_fault():
    # four logged messages merge into one class of multiplicity 4; the
    # prover's second move then inflates every history by 2e-9 in mass,
    # which is 5e-10 per class but 2e-9 over the run, above ROUND_TOL
    symbols = ("a", "b", "c", "d")
    verifier = _two_way(
        {
            ("q0", LEFT_END, (BLANK,)): tuple(("q1", 1, (s,), 0.5) for s in symbols),
            ("q1", "0", (BLANK,)): (("q2", 1, (BLANK,), 1.0),),
            ("q2", RIGHT_END, (BLANK,)): (("acc", 1, (BLANK,), 1.0),),
        },
        ("q0", "q1", "q2"),
        comm=(BLANK,) + symbols,
    )
    gain = math.sqrt(1 + 2e-9)
    inflating = LoggedReplyStrategy("inflate", lambda step, recv: [(BLANK, 1.0 if step == 1 else gain)])
    prover = ProverSpec(index=1, comm_alphabet=(BLANK,) + symbols, tape_alphabet=(BLANK,) + symbols,
                        space=2, strategy=inflating)
    p = ProtocolSpec(name="drift", verifier=verifier, provers=(prover,), a=1.0, b=1.0, cutoff=3)
    for protocol in (p, _hiding_cells(p)):
        with pytest.raises(RunFault, match="round 3 is not mass-preserving"):
            simulate(protocol, "0")
