import dataclasses
import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmipsim import corpus, engine
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
    constant_reply,
    echo_reply,
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
    result = simulate(p, "")
    assert result.p_accept == pytest.approx(1.0)
    assert result.halted_round == 3


def _relay_with_prover_1(strategy):
    p = corpus.build("parity_relay")
    prover = dataclasses.replace(p.provers[0], space=p.cutoff, strategy=strategy)
    return dataclasses.replace(p, provers=(prover,) + p.provers[1:])


def test_a_classical_run_refuses_a_branching_strategy():
    # a classical verifier moves its provers by apply_classical, which has no
    # form for a superposition; falling back to apply_quantum would weigh the
    # branches by amplitude
    with pytest.raises(ValidationError, match="branches; no classical form"):
        simulate(_relay_with_prover_1(rotation_reply(BLANK, "1")), "1")


class _MeasuredCoin:
    """Replies "1" with probability 0.3 and BLANK otherwise, its weights already probabilities."""
    measured = True

    def apply_quantum(self, step, comm, tape):
        return [(("1", tape), 0.3), ((BLANK, tape), 0.7)]


def test_a_measured_strategy_moves_by_apply_quantum_in_a_classical_run():
    # on "1" the relay accepts exactly when prover 1's second reply is "1";
    # the first reply, whatever it is, leads to the same configuration
    result = simulate(_relay_with_prover_1(_MeasuredCoin()), "1")
    assert result.p_accept == pytest.approx(0.3, abs=1e-12)
    assert result.p_reject == pytest.approx(0.7, abs=1e-12)
    assert result.halted_round == 3


def _spelled_out(provers, step, quantum, config):
    """The prover stage's column at `config`: the cartesian product of every slot's own moves,
    in slot order, each target's weight the product of its moves' weights."""
    by_slot = {pr.index - 1: pr.strategy for pr in provers}
    per_slot = []
    for slot, (cell, tape) in enumerate(zip(config.comm, config.tapes)):
        strategy = by_slot.get(slot)
        if strategy is None:
            per_slot.append([((cell, tape), 1.0)])
        elif quantum or getattr(strategy, "measured", False):
            per_slot.append(strategy.apply_quantum(step, cell, tape))
        else:
            per_slot.append([(strategy.apply_classical(step, cell, tape), 1.0)])
    column = []
    for combo in itertools.product(*per_slot):
        cells = tuple(reply for (reply, _), _ in combo)
        tapes = tuple(tape for (_, tape), _ in combo)
        column.append((Configuration(config.state, config.head, cells, tapes), math.prod(w for _, w in combo)))
    return column


def _slot(index, strategy):
    return ProverSpec(index=index, comm_alphabet=(BLANK,), tape_alphabet=(BLANK,), space=2, strategy=strategy)


_BLANKS = Configuration("q", 1, ("g", "h"), ((BLANK, BLANK), (BLANK, BLANK)))


def _run_sources(p, x):
    """(step, source) for every configuration that enters a prover stage of p's run on x."""
    return [(stat.index, config) for stat, classes in _rounds(p, x) if stat.index < p.cutoff
            for state, _, _ in classes for config in state]


@pytest.mark.parametrize("provers, quantum, sources", [
    # deterministic and branching slots, in both orders; a single move with a phase
    ((_slot(1, echo_reply()), _slot(2, rotation_reply("a", "b", -1))), True, [(1, _BLANKS)]),
    ((_slot(1, rotation_reply("a", "b")), _slot(2, constant_reply("c"))), True, [(1, _BLANKS)]),
    ((_slot(1, LoggedReplyStrategy("phase", lambda step, recv: [("a", -1j)])), _slot(2, echo_reply())),
     True, [(1, _BLANKS)]),
    # a slot without a move empties the column, and every later slot still moves
    ((_slot(1, LoggedReplyStrategy("none", lambda step, recv: [])), _slot(2, rotation_reply("a", "b"))),
     True, [(1, _BLANKS)]),
    # an absent slot keeps its cell and tape, before or after a branching slot
    ((_slot(2, rotation_reply("a", "b")),), True, [(1, _BLANKS)]),
    ((_slot(1, rotation_reply("a", "b")),), True, [(1, _BLANKS)]),
    ((_slot(2, constant_reply("c")),), False, [(1, _BLANKS)]),
    # a measured strategy branches in a classical run, next to a deterministic slot
    ((_slot(1, _MeasuredCoin()), _slot(2, constant_reply("c"))), False, [(1, _BLANKS)]),
    ((_slot(1, constant_reply("c")), _slot(2, _MeasuredCoin())), False, [(1, _BLANKS)]),
], ids=["det-branching", "branching-det", "phase-det", "empty-branching", "absent-branching",
        "branching-absent", "absent-classical", "measured-det", "det-measured"])
def test_the_prover_operator_is_the_product_of_each_slots_own_moves(provers, quantum, sources):
    for step, config in sources:
        column = prover_operator(provers, step, quantum)(config)
        assert repr(column) == repr(_spelled_out(provers, step, quantum, config))
        assert all(type(target) is Configuration for target, _ in column)


@pytest.mark.parametrize("name", ["parity_relay", "lifted", "reduced", "no_comm", "no_comm_reduce"])
def test_the_prover_operator_is_the_product_of_each_slots_own_moves_on_the_corpus_runs(name):
    # deterministic slots only: tables, history and track wraps, erasers; and classical runs
    p = {"lifted": _lifted_parity_relay, "reduced": _reduced_parity_relay}.get(name, lambda: corpus.build(name))()
    quantum = p.verifier.is_quantum()
    sources = [source for x in ("", "1", "11", "0") if set(x) <= set(p.verifier.input_alphabet)
               for source in _run_sources(p, x)]
    assert sources
    for step, config in sources:
        column = prover_operator(p.provers, step, quantum)(config)
        assert repr(column) == repr(_spelled_out(p.provers, step, quantum, config))


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
        simulate(p, "0")


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
        simulate(p, "0")


def test_a_measurement_that_loses_mass_is_a_run_fault():
    with pytest.raises(RunFault, match="measurement at round 2 lost probability mass"):
        _check_round(2, 1.0, 1.0, 0.5, 0.5 - 1e-10, 0.0)
    # rounding drift well inside CONSERVATION_TOL passes
    _check_round(2, 1.0, 1.0, 0.5, 0.5 - 1e-13, 0.0)


def _proverless():
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
    return ProtocolSpec(name="proverless", verifier=verifier, provers=(), a=0.5, b=0.5, cutoff=3)


def test_a_protocol_without_provers_runs_and_sweeps_past_round_1():
    p = _proverless()
    result = simulate(p, "0")
    assert (result.p_accept, result.p_reject, result.halted_round) == (0.5, 0.5, 2)
    assert result.steps_counted == 2
    swept = search(p, "0", keep_table=True)
    assert swept.evaluated == 1
    assert swept.best_labels == ()
    assert swept.table == [((), 0.5, 0.5)]


@pytest.mark.parametrize(
    "build, x, cutoff, objective",
    [
        (lambda: corpus.build("no_comm_reduce"), "0", None, "max-accept"),
        (lambda: corpus.build("no_comm_reduce"), "0", None, "min-reject"),
        (lambda: _reduced_parity_relay(), "1", 3, "max-accept"),
        (lambda: corpus.build("no_comm"), "", None, "max-accept"),
        (_proverless, "0", None, "max-accept"),
    ],
    ids=["c5-max-accept", "c5-min-reject", "reduced-relay-1-cutoff-3", "no-comm-empty", "proverless"],
)
def test_keep_table_changes_only_the_table(build, x, cutoff, objective):
    p = build()
    kept = search(p, x, objective=objective, cutoff=cutoff, keep_table=True)
    bare = search(p, x, objective=objective, cutoff=cutoff, keep_table=False)
    assert kept.table is not None and len(kept.table) == kept.evaluated
    assert bare.table is None
    assert bare == dataclasses.replace(kept, table=None)


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
    prover = make_eraser(1, verifier.comm_alphabets[0], cutoff=cutoff)
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
    after, p_acc, p_rej, residual = _verify_and_measure(state, verifier, (LEFT_END, RIGHT_END), {})
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
    after, p_acc, p_rej, residual = _verify_and_measure(state, verifier, (LEFT_END, RIGHT_END), {})
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
    after, p_acc, p_rej, residual = _verify_and_measure(state, verifier, (LEFT_END, "0", RIGHT_END), {})
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
    result = simulate(_with_eraser(verifier), "0")
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
    result = simulate(p, "0")
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
        simulate(_with_eraser(verifier), "0")


def test_moves_that_collide_on_the_two_cell_tape_are_a_run_fault():
    # on the tape of "" the moves +1 and -1 both reach cell 1; the two
    # branches would add as amplitudes and report p_accept 1
    verifier = _two_way(
        {("q0", LEFT_END, (BLANK,)): (("acc", 1, (BLANK,), H), ("acc", -1, (BLANK,), 1j * H))},
        ("q0",),
    )
    with pytest.raises(RunFault, match=r"state='q0'.*moves \+1 and -1 both land on .*state='acc'"):
        simulate(_with_eraser(verifier), "")
    # on a longer tape the two moves reach different cells
    assert simulate(_with_eraser(verifier), "0").p_accept == pytest.approx(1.0, abs=1e-12)


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
        simulate(p, "0")


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
    after, p_acc, p_rej, residual = _verify_and_measure(state, verifier, tape, {})
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


@given(rows=_ROWS, state=_SOURCES, other=_SOURCES)
def test_pass_matches_the_staged_reference_on_random_2qfa_states(rows, state, other):
    # random columns (duplicate targets and cancellations included) over up
    # to three tape groups of any size; nothing here is unitary, the pass
    # only has to agree with the staged verifier stage and split. The column
    # cache is first filled by another state's pass, as the sweep's scorer
    # shares one across calls, and must change nothing, bit for bit
    verifier = _two_way(rows, _STATES, comm=_CELLS)
    tape = (LEFT_END, "0", RIGHT_END)
    columns: dict = {}
    _verify_and_measure(other, verifier, tape, columns)
    out = _verify_and_measure(state, verifier, tape, columns)
    assert repr(out) == repr(_verify_and_measure(state, verifier, tape, {}))
    after, p_acc, p_rej, residual = out
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
        p_acc, p_rej, state = run_round(p, tape, state, stat.index)
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
    assert [r.stored for r in whole.rounds] == [r.configurations for r in whole.rounds]
    assert folded.halted_round == whole.halted_round


@pytest.mark.parametrize(
    "name, x",
    [(name, x) for name in sorted(corpus.REGISTRY) for x in corpus.test_inputs(name)]
    + [("parity_relay_reduced", x) for x in ("", "1", "11", "111")] + [("two_rotations", "0")],
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
    whole = list(_rounds(p, x))
    if name == "parity_relay_reduced":
        assert any(c.multiplicity > 1 for _, classes in whole for c in classes)
    for j, pair in enumerate(whole):
        assert list(_rounds(p, x, after=pair)) == whole[j + 1:], j + 1


def test_the_driver_stores_one_folded_class_per_round(monkeypatch):
    # the reduced relay stashes a mask in a fresh cell every round; the
    # fold right after the prover stage merges 16 histories, so the
    # verifier pass sees one configuration and 16 targets per round
    seen = []
    verify = engine._verify_and_measure

    def spy(state, verifier, tape, columns):
        out = verify(state, verifier, tape, columns)
        seen.append((len(state), len(out[3])))
        return out

    monkeypatch.setattr(engine, "_verify_and_measure", spy)
    rounds = simulate(_reduced_parity_relay(), "111").rounds
    assert [r.configurations for r in rounds] == [16, 256, 4096, 65536, 0]
    assert [r.stored for r in rounds] == [16, 16, 16, 16, 0]
    assert seen == [(1, 16)] * 4 + [(1, 0)]


def test_the_driver_sums_each_state_once(monkeypatch):
    summed = []
    mass = engine._mass

    def spy(state, quantum):
        summed.append(state)  # holds each dict, so no id is reused
        return mass(state, quantum)

    monkeypatch.setattr(engine, "_mass", spy)
    result = simulate(_reduced_parity_relay(), "111")
    assert result.p_accept == pytest.approx(1.0, abs=1e-12)
    assert summed
    assert len({id(state) for state in summed}) == len(summed)


def test_a_fold_that_merges_nothing_keeps_its_classes(monkeypatch):
    # every fold of the lifted relay takes one class of one configuration:
    # the class keeps its dict and the mass the fold check summed
    folds = []
    fold = engine._fold

    def spy(classes, cells):
        out = fold(classes, cells)
        folds.append((classes, out))
        return out

    summed = []
    mass = engine._mass

    def count(state, quantum):
        summed.append(state)
        return mass(state, quantum)

    monkeypatch.setattr(engine, "_fold", spy)
    monkeypatch.setattr(engine, "_mass", count)
    result = simulate(_lifted_parity_relay(), "111")
    assert [(r.configurations, r.stored) for r in result.rounds] == [(1, 1)] * 4 + [(0, 0)]
    assert len(summed) == 9
    assert folds
    for before, after in folds:
        assert len(after) == len(before)
        for kept, c in zip(after, before):
            assert kept.state is c.state
            assert c.mass is not None and kept.mass == c.mass


class _Cells:
    """A strategy that only declares its cells: `schedule[step - 1]`, None for the whole tape."""

    def __init__(self, schedule):
        self.schedule = schedule

    def cells(self, step):
        return self.schedule[step - 1]


def _brute_fold(p, j):
    """The fold after round j's prover stage, straight from its definition."""
    def touched(prover, step):
        cells = getattr(prover.strategy, "cells", None)
        declared = None if cells is None else cells(step)
        everything = set(range(prover.space))
        return everything if declared is None else everything & set(declared)

    def union(prover, steps):
        return set().union(*(touched(prover, step) for step in steps))

    if not 2 <= j < p.cutoff:
        return None
    before = [union(pr, range(1, j)) for pr in p.provers]
    rest = [union(pr, range(j, p.cutoff)) for pr in p.provers]
    if not any(touched(pr, j - 1) - later for pr, later in zip(p.provers, rest)):
        return None
    return engine._Fold(
        tuple(tuple(sorted(a - b)) for a, b in zip(before, rest)),
        tuple(tuple(sorted(a & b)) for a, b in zip(before, rest)),
    )


@st.composite
def _scheduled_provers(draw):
    cutoff = draw(st.integers(2, 10))
    provers = []
    for index in range(1, draw(st.integers(1, 3)) + 1):
        space = draw(st.integers(0, 5))
        # cells may reach past the tape, and a step may declare the whole tape
        step_cells = st.one_of(st.none(), st.lists(st.integers(0, space + 2), max_size=4).map(tuple))
        strategy = draw(st.one_of(st.just(object()), st.lists(step_cells, min_size=cutoff, max_size=cutoff).map(_Cells)))
        provers.append(ProverSpec(index=index, comm_alphabet=(BLANK,), tape_alphabet=(BLANK,), space=space,
                                  strategy=strategy))
    verifier = corpus.build("no_comm").verifier
    return ProtocolSpec(name="scheduled", verifier=verifier, provers=tuple(provers), a=1.0, b=1.0, cutoff=cutoff)


@settings(max_examples=200, deadline=None)
@given(p=_scheduled_provers())
def test_the_fold_schedule_matches_its_definition(p):
    fold_after = engine._fold_schedule(p)
    for j in range(p.cutoff + 2):
        assert fold_after(j) == _brute_fold(p, j), j


def test_the_fold_schedule_is_built_only_at_a_round_that_can_fold(monkeypatch):
    # round 1 never folds, nor does the last round, so neither a sweep's
    # shared round 1 nor a cutoff-2 run builds the schedule
    built = []
    schedule = engine._fold_schedule
    monkeypatch.setattr(engine, "_fold_schedule", lambda p: built.append(p.cutoff) or schedule(p))
    relay = corpus.build("parity_relay")
    search(relay, "1", cutoff=2)
    search(corpus.build("no_comm_lift"), "0")
    next(_rounds(relay, "1"))
    assert built == []
    simulate(relay, "11")
    assert built == [relay.cutoff]


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


@pytest.mark.parametrize("name", ["coinflip_quantum", "coinflip_classical", "no_comm", "no_comm_lift"])
def test_a_nan_weight_faults_the_run(name):
    """A NaN amplitude or probability fails the mass checks instead of reaching the result."""
    p = corpus.build(name)
    (key, branches), *rest = p.verifier.rows.items()
    row = ((*branches[0][:3], complex(math.nan)),) + branches[1:]
    bad = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, rows={key: row, **dict(rest)}))
    with pytest.raises(RunFault, match="^round 1 is not mass-preserving"):
        simulate(bad, "0")


def test_a_nan_amplitude_from_a_prover_move_reaches_the_round_fault():
    # the prover stage's prune keeps a NaN, so the check names it instead of lost mass
    p = corpus.build("no_comm_lift")
    mute = p.provers[1]
    table = {(s, ()): [((s, ()), complex(math.nan))] for s in mute.comm_alphabet}
    nan = dataclasses.replace(mute, strategy=UnitaryTableStrategy(work=0, steps={None: table}))
    bad = dataclasses.replace(p, provers=(p.provers[0], nan) + p.provers[2:])
    with pytest.raises(RunFault, match=r"^round 2 is not mass-preserving: 1 -> nan;"):
        simulate(bad, "0")
