import dataclasses
import itertools
import math
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmipsim import corpus, engine
from qmipsim.adversary import default_families, search
from qmipsim.amplitudes import apply_sparse_operator
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
    TrackWrapStrategy,
    UnitaryTableStrategy,
    VerifierSpec,
    FixedReplies,
    _classical_move,
    constant_reply,
    echo_reply,
    parse_track,
    track,
    rotation_reply,
)
from qmipsim.tolerances import CONSERVATION_TOL, PRUNE_TOL, ROUND_TOL
from qmipsim.transforms import lift_2ip_to_3qip, make_eraser, reduce_3qip_to_2qip, unify_alphabets

H = 1 / math.sqrt(2)


def _mute_prover(index=1):
    return ProverSpec(
        index=index,
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


def test_outcome_names_the_likelier_verdict():
    assert simulate(corpus.build("always_accept_classical"), "0").outcome == "accept"
    verifier = VerifierSpec(
        mode="1pfa",
        states=("q0", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(),
        rows={("q0", LEFT_END, ()): (("rej", 1, (), 1.0),)},
    )
    rejecting = ProtocolSpec(name="rejecting", verifier=verifier, provers=(), a=1.0, b=1.0, cutoff=1)
    assert simulate(rejecting, "0").outcome == "reject"


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


class _Nameless:
    """A strategy with neither a label nor a kind, whose one move has amplitude 0.5."""

    def apply_quantum(self, step, comm, tape):
        return [((BLANK, tape), 0.5)]

    apply_classical = _classical_move


class _LabelOnly(_Nameless):
    """The same move under a label, still without a kind."""
    label = "label-only"


@pytest.mark.parametrize("strategy, name, amp", [
    (LoggedReplyStrategy("half", lambda step, recv: [(BLANK, 0.5)]), "half", 0.5),
    (LoggedReplyStrategy("flip", lambda step, recv: [(BLANK, -1)]), "flip", -1),
    (UnitaryTableStrategy(0, {None: {(recv, ()): [((BLANK, ()), -1 + 0j)] for recv in (BLANK, "g")}}),
     "unitary-table", -1 + 0j),
    (_LabelOnly(), "label-only", 0.5),
    (_Nameless(), "_Nameless", 0.5),
])
def test_a_classical_run_refuses_a_single_move_of_amplitude_other_than_1(strategy, name, amp):
    # a classical run weighs every prover move 1, so a single move of another
    # amplitude has no classical form, whichever strategy class makes it
    p = corpus.build("no_comm")
    provers = (dataclasses.replace(p.provers[0], strategy=strategy, space=p.cutoff),
               dataclasses.replace(p.provers[1], strategy=constant_reply(BLANK), space=p.cutoff))
    message = f"strategy {name} moves with amplitude {amp!r}, not 1; no classical form"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        simulate(dataclasses.replace(p, provers=provers), "0")
    within = LoggedReplyStrategy("near", lambda step, recv: [(BLANK, 1 + 1e-13)])
    near = simulate(dataclasses.replace(p, provers=(dataclasses.replace(provers[0], strategy=within), provers[1])), "0")
    assert (near.p_accept, near.p_reject) == (0.5, 0.5)


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
            for state, _ in classes for config in state]


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
    with pytest.raises(MissingTransition) as fault:
        simulate(p, "0")
    # the lookup raises before a column is stored, so a second run raises alike
    with pytest.raises(MissingTransition) as again:
        simulate(p, "0")
    assert str(again.value) == str(fault.value)


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


def test_a_run_without_provers_builds_no_prover_operator(monkeypatch):
    built = []
    build = engine.prover_operator
    monkeypatch.setattr(engine, "prover_operator", lambda *args: built.append(args) or build(*args))
    assert simulate(_proverless(), "0").halted_round == 2
    assert built == []
    simulate(corpus.build("no_comm"), "0")
    assert built


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


def _unpacked(out, quantum=True):
    """A verifier pass without records as (mass after, accept, reject, residual): the residual is the
    state of the one class it leaves, of multiplicity 1, or {} if none; the pass reports its mass and size."""
    after, p_acc, p_rej, left, size, classes = out
    residual = classes[0].state if classes else {}
    assert [c.multiplicity for c in classes] == ([1] if residual else [])
    assert repr(left) == repr(engine._mass(residual, quantum))
    assert size == len(residual)
    return after, p_acc, p_rej, residual


def _pass(state, verifier, tape, columns):
    return _unpacked(_verify_and_measure(state, verifier, tape, columns), verifier.is_quantum())


def test_verify_and_measure_splits_mass():
    verifier = _two_way(
        {
            ("qa", LEFT_END, (BLANK,)): (("acc", 0, (BLANK,), 1.0),),
            ("qb", LEFT_END, (BLANK,)): (("rej", 0, (BLANK,), 1.0),),
        },
        ("qa", "qb"),
    )
    state = {_at("qa"): complex(H), _at("qb"): complex(0, H)}
    after, p_acc, p_rej, residual = _pass(state, verifier, (LEFT_END, RIGHT_END), {})
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
    after, p_acc, p_rej, residual = _pass(state, verifier, (LEFT_END, RIGHT_END), {})
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
    after, p_acc, p_rej, residual = _pass(state, verifier, (LEFT_END, "0", RIGHT_END), {})
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
    with pytest.raises(RunFault, match=r"state='q0'.*moves \+1 and -1 both land on .*state='acc'") as fault:
        simulate(_with_eraser(verifier), "")
    # the column raises before it is stored, so a second run raises alike
    assert ("q0", LEFT_END, (BLANK,)) not in engine._columns(verifier, (LEFT_END, RIGHT_END))
    with pytest.raises(RunFault) as again:
        simulate(_with_eraser(verifier), "")
    assert str(again.value) == str(fault.value)
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
    # a live target both moves reach is one configuration, held once by the column
    rows = {
        ("q0", LEFT_END, (BLANK,)): (("p", 1, (BLANK,), 0.5), ("p", -1, (BLANK,), 0.5)),
        ("p", RIGHT_END, (BLANK,)): (("acc", 1, (BLANK,), 1.0),),
    }
    run = simulate(_with_eraser(dataclasses.replace(_two_way(rows, ("q0", "p")), mode="2pfa")), "")
    assert (run.p_accept, [stat.configurations for stat in run.rounds]) == (1.0, [1, 0])


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
    after, p_acc, p_rej, residual = _pass(state, verifier, tape, {})
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
    after, p_acc, p_rej, residual = _unpacked(out)
    want_acc, want_rej, want = _reference_round(_with_eraser(verifier), tape, state, 1, True)
    assert p_acc == pytest.approx(want_acc, abs=1e-12)
    assert p_rej == pytest.approx(want_rej, abs=1e-12)
    for c in set(residual) | set(want):
        assert abs(residual.get(c, 0j) - want.get(c, 0j)) <= 1e-12
    assert after == pytest.approx(p_acc + p_rej + sum(abs(a) ** 2 for a in residual.values()), abs=1e-12)


def _flip_zeros(a):
    """`a` with the sign of each zero part flipped: equal to `a`, with other bits."""
    return complex(-a.real if a.real == 0 else a.real, -a.imag if a.imag == 0 else a.imag)


@given(rows=_ROWS, state=_SOURCES)
def test_each_tape_group_keeps_its_own_residual_when_signatures_repeat(rows, state):
    # tape group x copied onto tapes w, and onto v with its zero parts'
    # signs flipped: each group gets the residual that it gets when
    # measured alone, bit for bit
    verifier = _two_way(rows, _STATES, comm=_CELLS)
    tape = (LEFT_END, "0", RIGHT_END)
    group = [(c, a) for c, a in state.items() if c.tapes == (("x",),)]
    state = {**state, **{c._replace(tapes=(("w",),)): a for c, a in group}}
    state.update({c._replace(tapes=(("v",),)): _flip_zeros(a) for c, a in group})
    residual = _pass(state, verifier, tape, {})[3]
    for tapes in {c.tapes for c in state}:
        alone = _pass({c: a for c, a in state.items() if c.tapes == tapes}, verifier, tape, {})[3]
        assert repr({c: a for c, a in residual.items() if c.tapes == tapes}) == repr(alone)


def test_the_one_time_pad_tape_groups_measure_as_each_group_alone():
    # the reduction's one-time pad puts round 2 of no_comm_reduce on "0",
    # unmerged, in 16 tape groups of two configurations over the same two
    # columns, with the same amplitudes
    p = corpus.build("no_comm_reduce")
    tape = input_tape("0", p.verifier)
    residual1 = run_round(p, tape, initial_state(p, "0"), 1)[2]
    state = apply_sparse_operator(prover_operator(p.provers, 1, p.verifier.is_quantum()), residual1)
    groups: dict = {}
    for config, amp in state.items():
        groups.setdefault(config.tapes, {})[config] = amp
    assert len(groups) == 16 and {len(group) for group in groups.values()} == {2}
    assert len({frozenset(c[:3] for c in group) for group in groups.values()}) == 1
    out = _pass(state, p.verifier, tape, {})
    # the same, bit for bit, as every group measured on its own, masses added in order
    after = p_acc = p_rej = 0.0
    residual: dict = {}
    for group in groups.values():
        kept, acc, rej, live = _pass(group, p.verifier, tape, {})
        after += kept
        p_acc += acc
        p_rej += rej
        residual.update(live)
    assert repr(out) == repr((after, p_acc, p_rej, residual))
    assert repr(out[1:]) == repr((*run_round(p, tape, residual1, 2)[:2], {}))
    round2 = simulate(p, "0").rounds[1]
    assert repr((round2.p_accept, round2.p_reject)) == repr(out[1:3])


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


# ---------------------------------------------------------------- the verifier's column cache


def _cold(p):
    """p with a copy of its verifier, whose column cache starts empty."""
    return dataclasses.replace(p, verifier=dataclasses.replace(p.verifier))


@pytest.mark.parametrize(
    "name, x", [("no_comm", "0"), ("coinflip_quantum", "0"), ("parity_relay", "11"), ("parity_relay_reduced", "11")]
)
def test_a_second_run_builds_no_column(name, x, column_builds):
    built, _ = column_builds
    p = _cold(_protocol(name))
    first = simulate(p, x)
    assert built
    built.clear()
    second = simulate(p, x)
    assert built == []
    assert second == first
    assert repr(second) == repr(first)


def _passing(p):
    """p with each prover replying BLANK on a tape with a logging cell per step, as a sweep builds them."""
    provers = tuple(
        ProverSpec(index=i + 1, comm_alphabet=alphabet, tape_alphabet=alphabet, space=max(1, p.cutoff),
                   strategy=constant_reply(BLANK))
        for i, alphabet in enumerate(p.verifier.comm_alphabets)
    )
    return dataclasses.replace(p, provers=provers)


def test_a_changed_copy_of_a_warm_verifier_raises_the_round_fault():
    # the original's cache holds the column of the row on "0"; a copy through
    # `dataclasses.replace` starts with its own, so it reads the scaled row
    p = _passing(corpus.build("no_comm_reduce"))
    warm = simulate(p, "0")
    key = ("c0", "0", (BLANK, BLANK))
    assert key in engine._columns(p.verifier, input_tape("0", p.verifier))
    rows = dict(p.verifier.rows)
    rows[key] = tuple((q2, d, sent, 1.2 * w) for q2, d, sent, w in rows[key])
    changed = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, rows=rows))
    with pytest.raises(RunFault, match="round 2 is not mass-preserving"):
        simulate(changed, "0")
    assert simulate(p, "0") == warm


@pytest.mark.parametrize("ascending", [True, False])
def test_every_input_reads_the_columns_of_one_cache(ascending, column_builds):
    # a column is keyed by (state, scanned symbol, reception) and holds head
    # moves, so one verifier's runs on "" through "1111111" build each of
    # theirs once, 7 in all (43 when each input tape kept its own), in any
    # order, and each run is the run of a verifier that starts cold
    built, lookups = column_builds
    inputs = ["1" * n for n in range(8)][::1 if ascending else -1]
    fresh = [repr(simulate(_cold(_reduced_parity_relay()), x)) for x in inputs]
    built.clear()
    lookups.clear()
    p = _cold(_reduced_parity_relay())
    assert [repr(simulate(p, x)) for x in inputs] == fresh
    assert len(built) == len(lookups) == 7


# ---------------------------------------------------------------- history classes


class _Hidden:
    """A strategy with its `record` hidden, so the engine merges nothing by its records."""

    def __init__(self, inner):
        self.inner = inner

    def apply_quantum(self, step, comm, tape):
        return self.inner.apply_quantum(step, comm, tape)

    def apply_classical(self, step, comm, tape):
        return self.inner.apply_classical(step, comm, tape)


def _hiding_records(p):
    provers = tuple(dataclasses.replace(pr, strategy=_Hidden(pr.strategy)) for pr in p.provers)
    return dataclasses.replace(p, provers=provers)


def _outcome(p, x):
    try:
        return simulate(p, x)
    except QmipError as exc:
        return type(exc)


def _assert_agree(p, x):
    """The run of p merged by records and the unmerged run (every `record` hidden) agree, faults included."""
    folded, whole = _outcome(p, x), _outcome(_hiding_records(p), x)
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
    + [("parity_relay_reduced", x) for x in ("1", "11", "111")],
)
def test_resuming_the_driver_yields_the_rest_of_the_run(name, x):
    p = _protocol(name)
    whole = list(_rounds(p, x))
    if name == "parity_relay_reduced":
        assert any(c.multiplicity > 1 for _, classes in whole for c in classes)
    for j, pair in enumerate(whole):
        assert list(_rounds(p, x, after=pair)) == whole[j + 1:], j + 1


def test_the_driver_stores_one_merged_class_per_round(monkeypatch):
    # the reduced relay stashes a mask in a fresh cell every round; its 16
    # histories merge on the verifier column of the round's one configuration,
    # so each pass sees one configuration and 16 live targets and leaves one
    # class of one configuration
    seen = []
    verify = engine._verify_and_measure

    def spy(state, *args):
        out = verify(state, *args)
        seen.append((len(state), out[4], [len(c.state) for c in out[5]]))
        return out

    monkeypatch.setattr(engine, "_verify_and_measure", spy)
    rounds = simulate(_reduced_parity_relay(), "111").rounds
    assert [r.configurations for r in rounds] == [16, 256, 4096, 65536, 0]
    assert [r.stored for r in rounds] == [16, 16, 16, 16, 0]
    assert seen == [(1, 16, [1])] * 4 + [(1, 0, [])]


def _prover_stage_spy(monkeypatch):
    """(the round of each prover operator the engine builds, (its round, its sources) per apply of one)."""
    built, moved = [], []
    build, apply = engine.prover_operator, engine.apply_sparse_operator

    def spy_build(provers, step, quantum):
        built.append(step + 1)
        op = build(provers, step, quantum)

        def tagged(config):
            return op(config)

        tagged.round = step + 1
        return tagged

    def spy_apply(op, state):
        if hasattr(op, "round"):
            moved.append((op.round, len(state)))
        return apply(op, state)

    monkeypatch.setattr(engine, "prover_operator", spy_build)
    monkeypatch.setattr(engine, "apply_sparse_operator", spy_apply)
    return built, moved


def test_the_prover_stage_moves_one_source_per_merged_round(monkeypatch):
    # each round the reduced relay's 16 configurations differ only in the
    # masks their receptions carry on the lower track, which both track
    # wraps stash in cells that die in that move: they merge before it
    built, moved = _prover_stage_spy(monkeypatch)
    rounds = simulate(_reduced_parity_relay(), "111").rounds
    assert moved == [(2, 1), (3, 1), (4, 1), (5, 1)]
    assert built == [2, 3, 4, 5]
    assert [r.configurations for r in rounds] == [16, 256, 4096, 65536, 0]
    assert [r.stored for r in rounds] == [16, 16, 16, 16, 0]


def _fault_of_a_corrupted_reception(p, x):
    """The fault of p's run on x resumed from its unmerged round-1 residual with one reception replaced by 'zz'."""
    stat, _ = next(_rounds(p, x))
    state = dict(_pass(initial_state(p, x), p.verifier, input_tape(x, p.verifier), {})[3])
    victim = list(state)[5]
    state[victim._replace(comm=("zz",) + victim.comm[1:])] = state.pop(victim)
    with pytest.raises(MissingTransition) as fault:
        list(_rounds(p, x, after=(stat, [engine._Class(state, 1)])))
    return str(fault.value)


def test_a_reception_that_is_no_track_symbol_faults_the_merged_move():
    # the corrupted reception cannot be split into its tracks, so it stays
    # out of the merge and the track wrap rejects it as on the unfolded state
    assert _fault_of_a_corrupted_reception(_reduced_parity_relay(), "1") == "track wrap received non-track symbol 'zz'"


def test_a_reception_that_is_no_track_symbol_faults_the_last_round():
    # round 2 is no_comm_reduce's last, where no cell dies: the corrupted
    # reception stays out of the merge by masks there too, and faults the move
    p = corpus.build("no_comm_reduce")
    assert p.cutoff == 2
    assert _fault_of_a_corrupted_reception(p, "0") == "track wrap received non-track symbol 'zz'"


def test_the_mask_merge_runs_in_the_last_round(monkeypatch):
    # no_comm_reduce moves its provers only in round 2, its last: the 32
    # configurations of the round-1 residual differ in their masks alone and
    # merge into 2 before the move
    _, moved = _prover_stage_spy(monkeypatch)
    result = simulate(corpus.build("no_comm_reduce"), "0")
    assert moved == [(2, 2)]
    assert repr((result.p_accept, result.p_reject)) == repr((0.49999999999999994, 0.49999999999999994))


def test_a_track_wrap_over_a_hidden_inner_stash_still_merges_by_masks():
    # the stash cell lies past the inner strategy's slice, so the masks merge
    # before every move whatever the inner strategy is
    p = _reduced_parity_relay()
    provers = tuple(
        dataclasses.replace(pr, strategy=dataclasses.replace(pr.strategy, inner=_Hidden(pr.strategy.inner)))
        for pr in p.provers
    )
    hidden = dataclasses.replace(p, provers=provers)
    _assert_agree(hidden, "111")
    assert [r.stored for r in simulate(hidden, "111").rounds] == [16, 16, 16, 16, 0]


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


@pytest.mark.parametrize("build, x", [(_lifted_parity_relay, "111")]
                         + [(_reduced_parity_relay, x) for x in ("1", "11", "111")])
def test_a_round_of_one_configuration_sums_its_residual_once(monkeypatch, build, x):
    # each round of the relay's lift and reduction moves one configuration
    summed = []
    mass = engine._mass

    def count(state, quantum):
        summed.append(state)
        return mass(state, quantum)

    monkeypatch.setattr(engine, "_mass", count)
    result = simulate(build(), x)
    assert result.p_accept == pytest.approx(1.0, abs=1e-12)
    assert result.halted_round == len(x) + 2
    if build is _lifted_parity_relay:
        assert [(r.configurations, r.stored) for r in result.rounds] == [(1, 1)] * 4 + [(0, 0)]
        # two sums per round: its pass's of its residual, then its check's of the class before
        # the move, the residual the round before left (or the initial state); no check sums
        # the moved state
        assert len(summed) == 2 * len(result.rounds)
        residuals, checked = summed[0::2], summed[1::2]
        assert all(state is residual for state, residual in zip(checked[1:], residuals))


def _reference_merge(cls, split):
    """The merge rule spelled out: each history's state and key built in full. `engine._merge_records` must match it."""
    state, multiplicity = cls
    histories: dict = {}
    for config, amp in state.items():
        history, outside = split(config)
        members = histories.get(history)
        if members is None:
            members = histories[history] = ({}, [])
        members[0][config] = amp
        members[1].append((outside, amp))
    if len(histories) == 1:
        return [cls]
    merged: dict = {}
    for members, outside in histories.values():
        key = frozenset(outside)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [members, multiplicity]
        else:
            entry[1] += multiplicity
    return [engine._Class(*entry) for entry in merged.values()]


def _record_split(lowered, logged):
    """The split of a configuration by its records, the lower tracks of its `lowered` slots and the
    tapes of its `logged` slots: (the records, the configuration with upper tracks in place of those
    receptions and None in place of those tapes), or (itself, a fresh object) if a reception is no track."""
    def split(config):
        comm = list(config.comm)
        lowers = []
        for slot in lowered:
            halves = parse_track(comm[slot])
            if halves is None:
                return config, object()
            comm[slot], lower = halves
            lowers.append(lower)
        tapes = [None if slot in logged else tape for slot, tape in enumerate(config.tapes)]
        records = (tuple(lowers), tuple(config.tapes[slot] for slot in logged))
        return records, config._replace(comm=tuple(comm), tapes=tuple(tapes))

    return split


# two slots, each a cell and a tape of three cells; the alphabets are small,
# and "zz" is no track symbol, so histories often agree outside their split
_CELL = st.sampled_from((BLANK, "[a/0]", "[a/1]", "[b/0]", "zz"))
_TAPE = st.tuples(*[st.sampled_from((BLANK, "0"))] * 3)
_CONFIGURATION = st.builds(Configuration, st.sampled_from(("q0", "q1")), st.integers(0, 1),
                           st.tuples(_CELL, _CELL), st.tuples(_TAPE, _TAPE))
# per slot, its record: none, the lower track of its reception, or its tape
_KINDS = st.tuples(*[st.sampled_from((None, "lower", "tape"))] * 2)


def _record_slots(kinds):
    """(the `lower` slots, the `tape` slots) of per-slot record kinds."""
    return tuple(tuple(slot for slot, r in enumerate(kinds) if r == kind) for kind in ("lower", "tape"))


_RECORDS = _KINDS.map(_record_slots)


@st.composite
def _class_to_merge(draw):
    pool = draw(st.lists(_CONFIGURATION, min_size=1, max_size=8, unique=True))
    state = st.dictionaries(st.sampled_from(pool), st.sampled_from((0.5, -0.5, 0.5j, 1.0)), min_size=1, max_size=6)
    return draw(st.builds(engine._Class, state, st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(cls=_class_to_merge(), records=_RECORDS)
def test_the_merge_matches_its_reference(cls, records):
    got = engine._merge_records(cls, *records)
    want = _reference_merge(cls, _record_split(*records))
    assert len(got) == len(want)
    for new, ref in zip(got, want):
        assert list(new.state.items()) == list(ref.state.items())
        assert new.multiplicity == ref.multiplicity
        if ref.state is cls.state:
            assert new.state is ref.state


@settings(max_examples=300, deadline=None)
@given(cls=_class_to_merge(), records=_RECORDS)
def test_a_mask_merge_that_merges_nothing_keeps_its_classes(cls, records):
    # every class the merge returns is one history, so merging it
    # again merges nothing: it comes back with its dict and multiplicity
    for c in engine._merge_records(cls, *records):
        (kept,) = engine._merge_records(c, *records)
        assert kept.state is c.state
        assert kept.multiplicity == c.multiplicity


class _RecordOnly:
    """A strategy that only declares its `record`; round 1 precedes every move, so none is asked for."""

    def __init__(self, record):
        self.record = record


@st.composite
def _one_configuration_rounds(draw):
    """(a protocol whose provers declare random records, a one-configuration class, its input). The
    verifier sends the class to families of targets that agree but for the lower tracks of their cells,
    each family at one phase, all at one magnitude but a last weight of 1e-16, if drawn, which sends the
    class through the pass's prune instead of its closed form."""
    head = draw(st.integers(0, 2))
    config = Configuration("q0", head, draw(st.tuples(_CELL, _CELL)), draw(st.tuples(_TAPE, _TAPE)))
    families = draw(st.lists(st.tuples(st.sampled_from(("q0", "q1", "acc")), st.integers(-1, 1),
                                       st.tuples(_CELL, _CELL), st.sampled_from((1.0, -1.0, 1j))),
                             min_size=1, max_size=3))
    phases = {}
    for q2, d, cells, phase in families:
        for lowers in draw(st.lists(st.tuples(*[st.sampled_from(("0", "1"))] * 2), min_size=2, max_size=3)):
            halves = [parse_track(cell) for cell in cells]
            sent = tuple(track(h[0], lower) if h else cell for h, cell, lower in zip(halves, cells, lowers))
            phases.setdefault((q2, d, sent), phase)
    kept = len(phases) - (len(phases) > 1 and draw(st.booleans()))
    row = tuple((*move, phase / math.sqrt(kept) if i < kept else phase * 1e-16)
                for i, (move, phase) in enumerate(phases.items()))
    tape = (LEFT_END, "0", RIGHT_END)
    verifier = VerifierSpec("2qfa", ("q0", "q1", "acc", "rej"), "q0", frozenset({"acc"}), frozenset({"rej"}),
                            ("0",), ((BLANK,), (BLANK,)), {("q0", tape[head], config.comm): row})
    provers = tuple(ProverSpec(i + 1, (BLANK,), (BLANK,), 3, _RecordOnly(kind))
                    for i, kind in enumerate(draw(_KINDS)))
    amp = draw(st.sampled_from((1.0 + 0j, -0.5j, 0.6 + 0.8j)))
    cls = engine._Class({config: amp}, draw(st.integers(1, 3)))
    return ProtocolSpec("one", verifier, provers, 1.0, 1.0, 1), cls, "0"


@settings(max_examples=300, deadline=None)
@given(case=_one_configuration_rounds())
def test_a_one_configuration_class_merges_on_its_column_as_its_residual_would(case):
    # closed form or not, the classes round 1 yields are the merge of its residual
    # by the provers' records, representatives, order and multiplicities alike, and
    # its residual mass is the residual's, summed as `engine._mass` sums it
    p, cls, x = case
    records = _record_slots(tuple(pr.strategy.record for pr in p.provers))
    (amp,) = cls.state.values()
    start = engine.RoundStat(0, 0.0, 0.0, cls.multiplicity * abs(amp) ** 2, 1, 1)
    stat, got = next(_rounds(p, x, after=(start, [cls])))
    residual = _pass(cls.state, p.verifier, input_tape(x, p.verifier), {})[3]
    want = _reference_merge(engine._Class(residual, cls.multiplicity), _record_split(*records)) if residual else []
    assert [list(c.state.items()) for c in got] == [list(c.state.items()) for c in want]
    assert [c.multiplicity for c in got] == [c.multiplicity for c in want]
    assert repr(stat.residual_mass) == repr(cls.multiplicity * engine._mass(residual, True))
    assert stat.stored == len(residual)


@pytest.mark.parametrize("x", ["1", "11"])
def test_the_mask_merge_keeps_one_class_per_round_of_the_reduced_relay(x):
    # the 16 lower-track histories of every round merge into one class before
    # the move, so each round stores 16 configurations however many it counts;
    # with every `record` hidden, nothing merges and every configuration is stored
    p = _reduced_parity_relay()
    merged, whole = simulate(p, x), simulate(_hiding_records(p), x)
    counts = [16 ** j for j in range(1, len(x) + 2)] + [0]
    assert [r.configurations for r in merged.rounds] == [r.configurations for r in whole.rounds] == counts
    assert [r.stored for r in merged.rounds] == [min(n, 16) for n in counts]
    assert [r.stored for r in whole.rounds] == counts
    assert repr((merged.p_accept, merged.p_reject, merged.leftover)) == repr(
        (whole.p_accept, whole.p_reject, whole.leftover))


def _late_coin():
    """A 2pfa that reads past ¢ in q0 and flips its coin at the first 0, beside two mute provers."""
    one, half, cells = 1.0 + 0j, 0.5 + 0j, (BLANK, BLANK)
    rows = {
        ("q0", LEFT_END, cells): (("q0", 1, cells, one),),
        ("q0", "0", cells): (("c0", 1, cells, half), ("c1", 1, cells, half)),
        ("c0", "0", cells): (("c0", 1, cells, one),),
        ("c1", "0", cells): (("c1", 1, cells, one),),
        ("c0", RIGHT_END, cells): (("acc", 1, cells, one),),
        ("c1", RIGHT_END, cells): (("rej", 1, cells, one),),
    }
    verifier = VerifierSpec("2pfa", ("q0", "c0", "c1", "acc", "rej"), "q0", frozenset({"acc"}),
                            frozenset({"rej"}), ("0",), ((BLANK,), (BLANK,)), rows)
    return ProtocolSpec("late_coin", verifier, (_mute_prover(1), _mute_prover(2)), 0.5, 0.5, 8)


def test_a_late_coin_keeps_two_classes_per_round_moved_by_one_prover_operator(monkeypatch):
    # reduced, the coin of round 2 leaves two classes in each of rounds 3-5,
    # partial merges that store 16 configurations of 1,024 and more; each
    # round builds its prover operator once and moves every class with it
    base = _late_coin()
    p = reduce_3qip_to_2qip(unify_alphabets(lift_2ip_to_3qip(base).protocol)).protocol
    built, moved = _prover_stage_spy(monkeypatch)
    rounds = list(_rounds(p, "0000"))
    assert [len(classes) for _, classes in rounds] == [1, 1, 2, 2, 2, 0]
    assert [stat.stored for stat, _ in rounds] == [8, 16, 16, 16, 16, 0]
    assert [stat.configurations for stat, _ in rounds] == [8, 128, 1024, 8192, 65536, 0]
    assert built == [2, 3, 4, 5, 6]
    assert [j for j, _ in moved] == [2, 3, 4, 4, 5, 5, 6, 6]
    result, want = simulate(p, "0000"), simulate(base, "0000")
    assert result.p_accept == pytest.approx(want.p_accept, abs=1e-12)
    assert result.p_reject == pytest.approx(want.p_reject, abs=1e-12)



def _user_run():
    """The reduced relay against const:[1/#] and const:#, each with a cell per step for its log."""
    p = _reduced_parity_relay()
    strategies = (constant_reply("[1/#]"), constant_reply(BLANK))
    provers = tuple(dataclasses.replace(pr, strategy=s, space=p.cutoff) for pr, s in zip(p.provers, strategies))
    return dataclasses.replace(p, provers=provers)


def test_logged_provers_merge_by_their_tapes():
    # constant replies log each reception in a fresh cell that no move reads:
    # the 16 logs of a round's class merge into one class before the move, as
    # the masks of the honest track wraps do, while every mass stays the same
    p = _user_run()
    merged, whole = simulate(p, "111"), simulate(_hiding_records(p), "111")
    counts = [16, 256, 4096, 65536, 0]
    assert [r.configurations for r in merged.rounds] == [r.configurations for r in whole.rounds] == counts
    assert [r.stored for r in merged.rounds] == [16, 256, 256, 256, 0]
    assert [r.stored for r in whole.rounds] == counts
    masses = [repr([(r.p_accept, r.p_reject, r.residual_mass) for r in run.rounds]) for run in (merged, whole)]
    assert masses[0] == masses[1]
    assert repr((merged.p_accept, merged.p_reject, merged.leftover)) == repr((1.0, 0.0, 0.0))


def test_the_driver_reads_each_record_once_per_run():
    reads = []

    class Counted(LoggedReplyStrategy):
        @property
        def record(self):
            reads.append(1)
            return "tape"

    p = _user_run()
    counted = Counted("counted", FixedReplies(("[1/#]",)))
    p = dataclasses.replace(p, provers=(dataclasses.replace(p.provers[0], strategy=counted),) + p.provers[1:])
    assert repr(simulate(p, "111")) == repr(simulate(_user_run(), "111"))
    assert reads == [1]


@pytest.mark.parametrize("objective", ["max-accept", "min-reject"])
@pytest.mark.parametrize("x", ["1", "11"])
def test_sweep_tables_are_those_with_every_record_hidden(monkeypatch, x, objective):
    # every replay of a default-family combination merges its logged provers'
    # histories by their tapes; the table is the one of the unmerged replays, bit for bit
    p = _reduced_parity_relay()
    merged = search(p, x, objective=objective, cutoff=3, keep_table=True)
    for cls in (LoggedReplyStrategy, TrackWrapStrategy):
        monkeypatch.setattr(cls, "record", None)
    assert repr(search(p, x, objective=objective, cutoff=3, keep_table=True)) == repr(merged)

class _Declaring:
    """`inner` with a `cells` method that declares no cell at any step."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def cells(self, step):
        return ()


def test_the_engine_ignores_a_strategys_cells():
    # a declaration that no cell is live would have folded every history of a
    # round into one; the engine no longer reads `cells`, so the run is unchanged
    for p, x in ((_reduced_parity_relay(), "11"), (_two_rotating_provers(), "0"), (corpus.build("parity_relay"), "11")):
        declaring = dataclasses.replace(
            p, provers=tuple(dataclasses.replace(pr, strategy=_Declaring(pr.strategy)) for pr in p.provers))
        assert repr(simulate(declaring, x)) == repr(simulate(p, x))


_SWEPT = {
    "no_comm_lift": ("", "0", "00"),
    "no_comm_reduce": ("", "0", "00"),
    "parity_relay": ("", "1", "11", "111"),
    # the relay's lift and reduction run for several rounds of prover moves
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
    # strategy; honest provers keep runs of the relay alive past round 2
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


class _Scaled:
    """A strategy whose moves are `inner`'s with every amplitude times `gain`."""

    def __init__(self, inner, gain):
        self.inner = inner
        self.gain = gain

    def apply_quantum(self, step, comm, tape):
        return [(move, amp * self.gain) for move, amp in self.inner.apply_quantum(step, comm, tape)]


def test_a_drift_spread_over_merged_histories_is_still_a_run_fault():
    # the reduced relay merges the 16 histories of round 1 into one class of
    # multiplicity 16 before the move; prover 1's inner move then inflates
    # every history by 2e-9 in mass, which is 1.25e-10 for the class but 2e-9
    # over the round, above ROUND_TOL
    p = _reduced_parity_relay()
    first = p.provers[0]
    wrap = dataclasses.replace(first.strategy, inner=_Scaled(first.strategy.inner, math.sqrt(1 + 2e-9)))
    p = dataclasses.replace(p, provers=(dataclasses.replace(first, strategy=wrap),) + p.provers[1:])
    stat, survivors = next(_rounds(p, "1"))
    (merged,) = survivors
    assert merged.multiplicity == 16
    assert engine._mass(merged.state, True) * 2e-9 < ROUND_TOL < stat.residual_mass * 2e-9
    for protocol in (p, _hiding_records(p)):
        with pytest.raises(RunFault, match="round 2 is not mass-preserving"):
            simulate(protocol, "1")


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
