import dataclasses
import math
from functools import lru_cache

import pytest

from qmipsim import corpus
from qmipsim.amplitudes import CONSERVATION_TOL, apply_sparse_operator
from qmipsim.engine import (
    Configuration,
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
from qmipsim.errors import InvalidInput, MissingTransition, RunFault, ValidationError
from qmipsim.specs import (
    BLANK,
    LEFT_END,
    RIGHT_END,
    ClassicalTableStrategy,
    ProtocolSpec,
    ProverSpec,
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


@lru_cache(maxsize=None)
def _reduced_parity_relay():
    lifted = lift_2ip_to_3qip(corpus.parity_relay()).protocol
    return reduce_3qip_to_2qip(unify_alphabets(lifted)).protocol


def _reference_round(p, tape, state, round_index, quantum):
    """A round as separate stages: sparse applies, then an accept/reject split."""
    if round_index >= 2:
        for prover in p.provers:
            state = apply_sparse_operator(prover_operator(prover, round_index - 1, quantum), state)
    state = apply_sparse_operator(verifier_operator(p.verifier, tape), state)
    weight = (lambda a: abs(a) ** 2) if quantum else (lambda a: a.real)
    v = p.verifier
    p_acc = sum(weight(a) for c, a in state.items() if c.state in v.accept)
    p_rej = sum(weight(a) for c, a in state.items() if c.state in v.reject)
    residual = {c: a for c, a in state.items() if c.state not in v.accept | v.reject}
    return p_acc, p_rej, residual


@pytest.mark.parametrize(
    "name, x",
    [(name, x) for name in sorted(corpus.REGISTRY) for x in corpus.test_inputs(name)]
    + [("parity_relay_reduced", "1"), ("parity_relay_reduced", "11")],
)
def test_fused_round_matches_staged_reference(name, x):
    p = _reduced_parity_relay() if name == "parity_relay_reduced" else corpus.build(name)
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
