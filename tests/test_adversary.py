import cmath
import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmipsim import adversary, corpus, engine, specs, transforms
from qmipsim.adversary import (
    DerandomizeReport,
    SEQUENCE_CAP,
    StrategyFamily,
    constant_family,
    default_families,
    derandomize_provers,
    reply_sequence_family,
    rotation_family,
    search,
    soundness_gap,
    track_probe_family,
)
from qmipsim.amplitudes import PRUNE_TOL, apply_sparse_operator
from qmipsim.engine import (
    Configuration,
    _mass,
    _verify_and_measure,
    input_tape,
    run_classical,
    run_round,
    simulate,
)
from qmipsim.errors import FamilyTooLarge, MissingTransition, RunFault, Unbounded, ValidationError
from qmipsim.specs import (
    BLANK,
    LEFT_END,
    DerandomizedStrategy,
    EraserStrategy,
    ForeignGuard,
    LoggedReplyStrategy,
    ProtocolSpec,
    ProverSpec,
    VerifierSpec,
    constant_reply,
    echo_reply,
    rotation_reply,
    track,
)


# ---------------------------------------------------------------- families


def test_reply_sequence_family_enumerates_all_sequences():
    fam = reply_sequence_family(1, ("#", "g"), 2)
    # 2^2 fixed sequences plus the echo
    assert len(fam.strategies) == 5
    labels = [s.label for s in fam.strategies]
    assert "seq:#,#" in labels and "seq:g,g" in labels and "echo" in labels


def test_constant_and_rotation_families():
    const = constant_family(1, ("#", "a"))
    assert [s.label for s in const.strategies] == ["const:#", "const:a", "echo"]
    rot = rotation_family(1, ("#", "a", "b"))
    # three unordered pairs, both signs
    assert len(rot.strategies) == 6


def test_track_probe_family_shapes():
    base = ("#", "a", "b", "c")
    alphabet = corpus.build("no_comm_reduce").verifier.comm_alphabets[0]
    fam = track_probe_family(1, alphabet)
    # 256 constants + echo + 15 lower shifts + 16 upper substitutions
    assert len(fam.strategies) == 288
    del base


def test_default_families_pick_by_channel_shape():
    lifted = corpus.build("no_comm_lift")
    fams = default_families(lifted)
    assert [len(f.strategies) for f in fams] == [3, 2, 11]
    assert [f.label for f in fams] == ["sequences^1", "sequences^1", "sequences^1"]
    reduced = corpus.build("no_comm_reduce")
    fams = default_families(reduced)
    assert [f.label for f in fams] == ["track-probes", "track-probes"]
    # a huge flat alphabet falls back to constants
    wide = tuple(["#"] + [f"s{i}" for i in range(SEQUENCE_CAP)])
    p = ProtocolSpec(
        name="wide",
        verifier=lifted.verifier,
        provers=lifted.provers,
        a=0.5,
        b=0.5,
        cutoff=9,
    )
    fams = default_families(
        ProtocolSpec(
            name="w",
            verifier=type(lifted.verifier)(
                mode=lifted.verifier.mode,
                states=lifted.verifier.states,
                initial=lifted.verifier.initial,
                accept=lifted.verifier.accept,
                reject=lifted.verifier.reject,
                input_alphabet=lifted.verifier.input_alphabet,
                comm_alphabets=(wide,),
                rows=lifted.verifier.rows,
                fallback=None,
            ),
            provers=lifted.provers[:1],
            a=0.5,
            b=0.5,
            cutoff=9,
        )
    )
    assert fams[0].label == "constants"
    del p


# ---------------------------------------------------------------- search


def test_search_on_classical_protocol_is_deterministic():
    p = corpus.build("no_comm")
    result = search(p, "0")
    assert result.evaluated == 6
    assert result.best_value == pytest.approx(0.5, abs=1e-9)
    # reruns give byte-identical answers
    again = search(p, "0")
    assert again.best_labels == result.best_labels
    assert again.best_value == result.best_value


def test_search_on_lifted_protocol_cannot_beat_half():
    p = corpus.build("no_comm_lift")
    result = search(p, "0", keep_table=True)
    assert result.evaluated == 66
    assert len(result.table) == 66
    assert result.best_value <= 0.5 + 1e-9
    assert result.best_value == pytest.approx(0.5, abs=1e-9)
    assert result.best_labels == ("seq:#", "seq:#", "seq:#")
    # every single combination is bounded by the claim
    for labels, acc, rej in result.table:
        assert acc <= 0.5 + 1e-9, labels


def test_search_mass_is_conserved_per_entry():
    result = search(corpus.build("no_comm_lift"), "0", keep_table=True)
    for labels, acc, rej in result.table:
        assert acc + rej <= 1.0 + 1e-9, labels


def test_search_min_reject_objective():
    p = corpus.build("no_comm")
    report = soundness_gap(p, "0")
    assert report.claimed_b == 0.5
    assert report.empirical_b == pytest.approx(0.5, abs=1e-9)
    assert report.meets_claim


def test_search_rejects_bad_arguments():
    p = corpus.build("no_comm")
    with pytest.raises(ValidationError):
        search(p, "0", objective="max-leftover")
    fams = default_families(p)
    with pytest.raises(ValidationError):
        search(p, "0", families=fams[:1])
    swapped = (
        StrategyFamily(2, fams[1].label, fams[1].strategies),
        StrategyFamily(1, fams[0].label, fams[0].strategies),
    )
    with pytest.raises(ValidationError):
        search(p, "0", families=swapped)
    with pytest.raises(ValidationError, match="cutoff must be at least 1"):
        search(p, "0", cutoff=0)
    with pytest.raises(ValidationError, match="cutoff must be at least 1"):
        soundness_gap(p, "0", cutoff=0)


def test_search_family_limit():
    p = corpus.build("no_comm_lift")
    with pytest.raises(FamilyTooLarge):
        search(p, "0", limit=65)
    assert search(p, "0", limit=66).evaluated == 66


def test_search_reduced_protocol_with_handpicked_probes():
    p = corpus.build("no_comm_reduce")
    picks = (
        constant_reply(BLANK),
        constant_reply(track("g", BLANK)),
        constant_reply(track("g", "g")),
        echo_reply(),
    )
    fams = (
        StrategyFamily(1, "picks", picks),
        StrategyFamily(2, "picks", picks),
    )
    result = search(p, "0", families=fams)
    assert result.evaluated == 16
    assert result.best_value <= 0.5 + 1e-9


# ---------------------------------------------------------------- sweep vs simulate
#
# Each table entry must equal an ordinary simulation of the protocol with that
# combination's strategies plugged in, whichever way `search` scored it. The
# `replayed_rounds` fixture records which rounds `search` runs through the
# engine's round driver, one entry per `run_round` call the driver makes for
# `adversary`: round 1 once, then rounds 2 on only for combinations whose
# round 2 it could not score from precomputed moves or that keep mass past
# round 2 with rounds left.


@pytest.fixture
def replayed_rounds(monkeypatch):
    rounds = []
    driving = []

    def counting(p, tape, state, round_index, quantum, **kwargs):
        if driving:
            rounds.append(round_index)
        return run_round(p, tape, state, round_index, quantum, **kwargs)

    def driver(*args, **kwargs):
        steps = engine._rounds(*args, **kwargs)
        while True:
            driving.append(True)
            try:
                item = next(steps, None)
            finally:
                driving.pop()
            if item is None:
                return
            yield item

    monkeypatch.setattr(engine, "run_round", counting)
    monkeypatch.setattr(adversary, "_rounds", driver)
    return rounds


def _trial(p, combo):
    space = max(1, p.cutoff)
    provers = tuple(
        ProverSpec(
            index=i + 1,
            comm_alphabet=p.verifier.comm_alphabets[i],
            tape_alphabet=p.verifier.comm_alphabets[i],
            space=space,
            strategy=strategy,
        )
        for i, strategy in enumerate(combo)
    )
    return ProtocolSpec(p.name, p.verifier, provers, p.a, p.b, p.cutoff)


def _assert_matches_simulate(p, x, families, objective="max-accept"):
    result = search(p, x, families=families, objective=objective, keep_table=True)
    combos = list(itertools.product(*(fam.strategies for fam in families)))
    assert result.evaluated == len(combos) == len(result.table)
    best = None
    for combo, (labels, acc, rej) in zip(combos, result.table):
        run = simulate(_trial(p, combo), x)
        assert labels == tuple(s.label for s in combo)
        assert acc == pytest.approx(run.p_accept, abs=1e-12), labels
        assert rej == pytest.approx(run.p_reject, abs=1e-12), labels
        value = run.p_accept if objective == "max-accept" else run.p_reject
        if (
            best is None
            or (objective == "max-accept" and value > best[0] + 1e-12)
            or (objective == "min-reject" and value < best[0] - 1e-12)
        ):
            best = (value, labels, run.leftover)
    assert result.best_labels == best[1]
    assert result.best_leftover == pytest.approx(best[2], abs=1e-12)
    return result


def _track_probe_sample(p, seed):
    """16 probes per prover: 14 seeded non-constant probes and the two constants
    that pass the guard. Almost every constant is rejected outright, so a plain
    sample would compare nothing but guard rows."""
    rng = random.Random(seed)
    families = []
    for f in default_families(p):
        probes = [s for s in f.strategies if not s.label.startswith("const:")]
        passing = [s for s in f.strategies if s.label in ("const:#", f"const:{track('g', BLANK)}")]
        families.append(StrategyFamily(f.prover_index, f.label, tuple(rng.sample(probes, 14)) + tuple(passing)))
    return tuple(families)


@pytest.mark.parametrize("objective", ["max-accept", "min-reject"])
def test_track_probe_sweep_matches_simulate(objective, replayed_rounds):
    p = corpus.build("no_comm_reduce")
    families = _track_probe_sample(p, 2024)
    assert [len(f.strategies) for f in families] == [16, 16]
    result = _assert_matches_simulate(p, "0", families, objective)
    assert len({(acc, rej) for _, acc, rej in result.table}) >= 3
    assert replayed_rounds == [1]


def test_classical_sweep_matches_simulate(replayed_rounds):
    p = corpus.build("no_comm")
    for x in ("0", "00"):
        result = _assert_matches_simulate(p, x, default_families(p))
        assert result.evaluated == 6
    assert replayed_rounds == [1, 1]


def test_classical_sweep_on_the_empty_input_stays_fused(replayed_rounds):
    # only quantum head moves can collide on the two-cell tape of ""
    p = corpus.build("no_comm")
    _assert_matches_simulate(p, "", default_families(p))
    assert replayed_rounds == [1]


def test_three_prover_sweep_matches_simulate(replayed_rounds):
    p = corpus.build("no_comm_lift")
    result = _assert_matches_simulate(p, "0", default_families(p))
    assert result.evaluated == 66
    assert replayed_rounds == [1]


def test_foreign_guard_sweep_matches_simulate(replayed_rounds):
    # the unified lift: three provers on one 16-symbol channel alphabet, with
    # a foreign guard rejecting each slot's symbols outside its own alphabet
    p = transforms.unify_alphabets(corpus.build("no_comm_lift"))
    assert isinstance(p.verifier.fallback, ForeignGuard)
    families = tuple(
        StrategyFamily(f.prover_index, f.label, f.strategies[:3] + f.strategies[-3:])
        for f in default_families(p)
    )
    result = _assert_matches_simulate(p, "0", families)
    assert result.evaluated == 216
    assert len({(acc, rej) for _, acc, rej in result.table}) >= 2
    assert replayed_rounds == [1]


def test_mass_drift_raises_the_round_fault(replayed_rounds):
    class Forgetful:
        """Replies with the blank and leaves its tape alone, merging receptions."""
        label = "forgetful"

        def apply_quantum(self, step, comm, tape):
            return [((BLANK, tape), 1.0 + 0j)]

    p = corpus.build("no_comm_reduce")
    # prover 2's echo keeps the merged receptions apart: replayed, still exact
    families = (
        StrategyFamily(1, "picks", (constant_reply(BLANK), Forgetful())),
        StrategyFamily(2, "picks", (echo_reply(),)),
    )
    _assert_matches_simulate(p, "0", families)
    assert replayed_rounds == [1, 2]
    families = tuple(StrategyFamily(i + 1, "forgetful", (Forgetful(),)) for i in range(p.k))
    with pytest.raises(RunFault, match="round 2 is not mass-preserving"):
        search(p, "0", families=families)
    assert replayed_rounds == [1, 2, 1, 2]


def test_a_non_unitary_row_in_round_2_raises_the_round_fault(replayed_rounds):
    # one explicit row reached in round 2 gains mass; the fused scorer's mass
    # checks hand that combination to the replay, which raises simulate's fault
    p = corpus.build("no_comm_reduce")
    key = ("c0", "0", (BLANK, BLANK))
    rows = dict(p.verifier.rows)
    rows[key] = tuple((q2, d, sent, 1.2 * w) for q2, d, sent, w in rows[key])
    p = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, rows=rows))
    passing = (constant_reply(BLANK), constant_reply(track("g", BLANK)))
    families = tuple(StrategyFamily(i + 1, "passing", passing) for i in range(p.k))
    with pytest.raises(RunFault, match="round 2 is not mass-preserving") as expected:
        simulate(_trial(p, (passing[0], passing[0])), "0")
    with pytest.raises(RunFault) as raised:
        search(p, "0", families=families)
    assert str(raised.value) == str(expected.value)
    assert replayed_rounds == [1, 2]


def test_longer_sweeps_replay_only_round_2_survivors(replayed_rounds):
    # every combination of the lift halts in round 2, so none is replayed
    p = corpus.build("no_comm_lift")
    result = _assert_matches_simulate(dataclasses.replace(p, cutoff=3), "0", default_families(p, 3))
    assert result.evaluated == 1010
    assert replayed_rounds == [1]


def test_deep_sweeps_replay_exactly_the_round_2_survivors(replayed_rounds, monkeypatch):
    # on the reduced relay a few combinations keep their mass past round 2:
    # those alone run rounds 2 and 3 through the driver
    p = dataclasses.replace(_reduced_parity_relay(), cutoff=3)
    picks = {"const:#", f"const:{track('1', BLANK)}", "echo", "shift:1", "upper:#", "upper:1"}
    families = tuple(
        StrategyFamily(f.prover_index, f.label, tuple(s for s in f.strategies if s.label in picks))
        for f in default_families(p)
    )
    assert [len(f.strategies) for f in families] == [6, 6]
    replayed = []
    replay = adversary._replay

    def spy(p, x, first, combo, T, quantum):
        replayed.append(tuple(s.label for s in combo))
        return replay(p, x, first, combo, T, quantum)

    monkeypatch.setattr(adversary, "_replay", spy)
    result = _assert_matches_simulate(p, "1", families)
    survivors = [
        labels
        for (labels, _, _), combo in zip(result.table, itertools.product(*(f.strategies for f in families)))
        if simulate(_trial(p, combo), "1", cutoff=2).leftover > PRUNE_TOL
    ]
    assert 0 < len(survivors) < result.evaluated
    assert replayed == survivors
    assert replayed_rounds == [1] + [2, 3] * len(survivors)


def test_branching_strategies_mixed_into_a_family_match_simulate(replayed_rounds):
    p = corpus.build("no_comm_reduce")
    alphabet = p.verifier.comm_alphabets[0]
    g = track("g", BLANK)
    mixed = (
        constant_reply(g),
        rotation_reply(BLANK, g, +1),
        echo_reply(),
        rotation_reply(g, track("g", "g"), -1),
    )
    families = (
        StrategyFamily(1, "mixed", mixed),
        StrategyFamily(2, "picks", (constant_reply(BLANK), constant_reply(alphabet[-1]), echo_reply())),
    )
    for objective in ("max-accept", "min-reject"):
        _assert_matches_simulate(p, "0", families, objective)
    # only the 2 x 3 combinations with a rotation are replayed, per objective
    assert replayed_rounds == [1] + [2] * 6 + [1] + [2] * 6


def test_sweeps_on_the_two_cell_tape_replay_and_raise_the_collision(replayed_rounds):
    # on "" the moves +1 and -1 of q1's row land on one cell; scored from
    # precomputed moves, const:a would report p_accept 1 instead of faulting
    h = 2 ** -0.5
    comm = (BLANK, "a")
    verifier = VerifierSpec(
        mode="2qfa",
        states=("q0", "q1", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(comm,),
        rows={
            ("q0", LEFT_END, (BLANK,)): (("q1", 0, (BLANK,), 1.0),),
            ("q1", LEFT_END, ("a",)): (("acc", 1, (BLANK,), h), ("acc", -1, (BLANK,), 1j * h)),
            ("q1", LEFT_END, (BLANK,)): (("rej", 0, (BLANK,), 1.0),),
        },
        fallback=None,
    )
    p = ProtocolSpec("collide", verifier, (transforms.make_eraser(1, comm, space=2, cutoff=2),), 1.0, 1.0, 2)
    families = (StrategyFamily(1, "picks", (constant_reply(BLANK), constant_reply("a"))),)
    with pytest.raises(RunFault, match=r"moves \+1 and -1 both land on"):
        search(p, "", families=families)
    assert replayed_rounds == [1, 2, 2]


def test_an_empty_family_is_a_validation_error_before_round_1(monkeypatch):
    p = corpus.build("no_comm")
    monkeypatch.setattr(adversary, "_rounds", None)
    with pytest.raises(ValidationError, match="family 'e' for prover 1 has no strategies"):
        search(p, "0", families=(StrategyFamily(1, "e", ()), StrategyFamily(2, "picks", (echo_reply(),))))


def test_failing_strategy_raises_its_own_error():
    p = corpus.build("no_comm_reduce")
    families = (
        StrategyFamily(1, "picks", (constant_reply(BLANK), DerandomizedStrategy(choices={}))),
        StrategyFamily(2, "picks", (echo_reply(),)),
    )
    with pytest.raises(MissingTransition):
        search(p, "0", families=families)


@pytest.mark.parametrize("keep_guard", [True, False])
def test_missing_verifier_row_raises_its_own_error(keep_guard):
    # without explicit rows, receptions the guard passes have no row at all
    p = corpus.build("no_comm_reduce")
    fallback = p.verifier.fallback if keep_guard else None
    bare = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, rows={}, fallback=fallback))
    families = tuple(StrategyFamily(i + 1, "blank", (constant_reply(BLANK),)) for i in range(p.k))
    with pytest.raises(MissingTransition, match="verifier has no row"):
        search(bare, "0", families=families)


# ---------------------------------------------------------------- interference groups
#
# Round-1 sources that share every slot's local state form an interference
# group. A group whose members all fall to the guard and halt there adds one
# precomputed triple per combination; every other group is scored source by
# source. These sweeps sit on each edge of that shortcut.

_BASE = (BLANK, "u", "v", "p")


def _guarded(first, rows, accept, reject, minted):
    """A one-prover 2qfa that sends `first` from q0 in round 1 and rejects
    foreign symbols through a ForeignGuard that knows the `minted` states."""
    states = dict.fromkeys(["q0", *(q for q, *_ in first), *sorted(accept | reject | minted)])
    verifier = VerifierSpec(
        mode="2qfa",
        states=tuple(states),
        initial="q0",
        accept=frozenset(accept),
        reject=frozenset(reject),
        input_alphabet=("0",),
        comm_alphabets=(_BASE + ("y", "z"),),
        rows={("q0", LEFT_END, (BLANK,)): first, **rows},
        fallback=ForeignGuard(slot_bases=(_BASE,), known_states=frozenset(minted)),
    )
    comm = verifier.comm_alphabets[0]
    return ProtocolSpec("guarded", verifier, (transforms.make_eraser(1, comm, space=2, cutoff=2),), 1.0, 1.0, 2)


def test_group_split_between_a_row_and_the_guard_is_scored_per_source(replayed_rounds):
    # qa and qb both receive u, so const:z sends both to the guard-matching
    # reception (z,); qa has an explicit row for it and accepts, qb has none
    h = 2 ** -0.5
    ra, rb = specs.guard_state("rejf", "qa", LEFT_END), specs.guard_state("rejf", "qb", LEFT_END)
    p = _guarded(
        first=(("qa", 0, ("u",), h), ("qb", 0, ("u",), h)),
        rows={("qa", LEFT_END, ("z",)): (("acc", 1, (BLANK,), 1.0),)},
        accept={"acc"},
        reject={ra, rb},
        minted={ra, rb},
    )
    families = (StrategyFamily(1, "picks", (constant_reply("z"), constant_reply("y"))),)
    result = _assert_matches_simulate(p, "0", families)
    assert [entry[1:] for entry in result.table] == [pytest.approx((0.5, 0.5)), pytest.approx((0.0, 1.0))]
    assert replayed_rounds == [1]


class _Relabel:
    """Replies p to u and z to v and leaves its tape alone: two local states,
    two replies, one new tape."""
    label = "relabel"

    def apply_quantum(self, step, comm, tape):
        return [(({"u": "p", "v": "z"}[comm], tape), 1.0 + 0j)]


def test_a_row_into_a_guard_minted_state_turns_the_shortcut_off(replayed_rounds):
    # qb's group falls to the guard and lands on rejf[qb|¢] at head 1 with
    # reception (z,); qa's row sends part of its amplitude to that very
    # configuration, and its other branch interferes with qd's on acc
    r, h = 3 ** -0.5, 2 ** -0.5
    rb = specs.guard_state("rejf", "qb", LEFT_END)
    p = _guarded(
        first=(("qa", 0, ("u",), r), ("qd", 0, ("u",), r), ("qb", 0, ("v",), r)),
        rows={
            ("qa", LEFT_END, ("p",)): ((rb, 1, ("z",), h), ("acc", 0, (BLANK,), -h)),
            ("qd", LEFT_END, ("p",)): (("acc", 0, (BLANK,), 1.0),),
        },
        accept={"acc"},
        reject={rb},
        minted={rb},
    )
    result = _assert_matches_simulate(p, "0", (StrategyFamily(1, "picks", (_Relabel(),)),))
    assert result.table[0][1:] == pytest.approx(((1 - h) ** 2 / 3, (1 + h) ** 2 / 3))
    assert replayed_rounds == [1]


def test_a_guard_target_that_does_not_halt_stays_in_the_residual(replayed_rounds):
    ra = specs.guard_state("rejf", "qa", LEFT_END)
    p = _guarded(
        first=(("qa", 0, ("u",), 1.0),),
        rows={},
        accept={"acc"},
        reject=set(),
        minted={ra},
    )
    families = (StrategyFamily(1, "picks", (constant_reply("z"), constant_reply("y"))),)
    result = _assert_matches_simulate(p, "0", families)
    assert [entry[1:] for entry in result.table] == [(0.0, 0.0), (0.0, 0.0)]
    assert result.best_leftover == pytest.approx(1.0)
    assert replayed_rounds == [1]


def _phased(label, reply, angle):
    return LoggedReplyStrategy(label, lambda step, recv: [(reply(recv), cmath.exp(1j * angle))])


def test_single_move_strategies_with_a_phase_match_simulate(replayed_rounds):
    p = corpus.build("no_comm_reduce")
    g = track("g", BLANK)
    families = tuple(
        StrategyFamily(i + 1, "phased", (
            _phased("phase:g", lambda recv: g, 0.7 * (i + 1)),
            _phased("phase:echo", lambda recv: recv, -1.1),
            _phased("phase:#", lambda recv: BLANK, 2.3),
            constant_reply(g),
            constant_reply(track("g", "g")),
        ))
        for i in range(p.k)
    )
    result = _assert_matches_simulate(p, "0", families)
    assert len({(round(acc, 9), round(rej, 9)) for _, acc, rej in result.table}) >= 3
    assert replayed_rounds == [1]


def test_strategies_without_label_or_kind_are_named_by_type():
    class Plain:
        """Replies with the blank and logs what it received, like const:#."""

        def apply_quantum(self, step, comm, tape):
            return constant_reply(BLANK).apply_quantum(step, comm, tape)

        def apply_classical(self, step, comm, tape):
            return constant_reply(BLANK).apply_classical(step, comm, tape)

    class Kinded(Plain):
        kind = "kinded"

    p = corpus.build("no_comm_reduce")
    families = (StrategyFamily(1, "plain", (Plain(),)), StrategyFamily(2, "kinded", (Kinded(),)))
    result = search(p, "0", families=families, keep_table=True)
    run = simulate(_trial(p, (Plain(), Kinded())), "0")
    assert result.best_labels == ("Plain", "kinded")
    assert result.table == [(("Plain", "kinded"), pytest.approx(run.p_accept, abs=1e-12),
                             pytest.approx(run.p_reject, abs=1e-12))]
    assert adversary._Forced(Plain(), {}).label == "Plain+forced"
    assert adversary._Forced(constant_reply(BLANK), {}).label == "const:#+forced"


@functools.cache
def _reduced_parity_relay():
    lifted = transforms.lift_2ip_to_3qip(corpus.parity_relay()).protocol
    return transforms.reduce_3qip_to_2qip(transforms.unify_alphabets(lifted)).protocol


_PROBED = {
    "no_comm_reduce": (lambda: corpus.build("no_comm_reduce"), "0"),
    "parity_relay_reduced": (_reduced_parity_relay, "1"),
}


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(_PROBED)),
    objective=st.sampled_from(("max-accept", "min-reject")),
    cutoff=st.sampled_from((2, 3)),
    data=st.data(),
)
def test_track_probe_sub_sweeps_match_the_replay(name, objective, cutoff, data):
    build, x = _PROBED[name]
    p = dataclasses.replace(build(), cutoff=cutoff)
    families = []
    for f in default_families(p):
        picks = data.draw(st.lists(st.sampled_from(range(len(f.strategies))), min_size=1, max_size=16, unique=True))
        families.append(StrategyFamily(f.prover_index, f.label, tuple(f.strategies[j] for j in picks)))
    families = tuple(families)
    result = search(p, x, families=families, objective=objective, keep_table=True)
    tape = input_tape(x, p.verifier)
    quantum = p.verifier.is_quantum()
    state0 = {Configuration(p.verifier.initial, 0, (BLANK,) * p.k, ((BLANK,) * cutoff,) * p.k): 1.0 + 0j}
    acc1, rej1, residual1 = run_round(p, tape, state0, 1, quantum)
    mass1 = _mass(residual1, quantum)
    first = (engine.RoundStat(1, acc1, rej1, mass1, len(residual1)), [engine._Class(residual1, 1, mass1)])
    combos = list(itertools.product(*(f.strategies for f in families)))
    assert len(result.table) == len(combos)
    leftover = {}
    for combo, (labels, acc, rej) in zip(combos, result.table):
        want_acc, want_rej, leftover[labels] = adversary._replay(p, x, first, combo, cutoff, quantum)
        assert labels == tuple(s.label for s in combo)
        assert acc == pytest.approx(want_acc, abs=1e-12), labels
        assert rej == pytest.approx(want_rej, abs=1e-12), labels
    assert result.best_leftover == pytest.approx(leftover[result.best_labels], abs=1e-12)


# ---------------------------------------------------------------- derandomization


def test_derandomize_strictly_improves_on_rotating_prover():
    p = corpus.build("parity_relay")
    strategies = (rotation_reply(BLANK, "1"), constant_reply(BLANK))
    det, report = derandomize_provers(p, "1", strategies)
    assert report.quantum_p_reject == pytest.approx(0.5, abs=1e-9)
    assert report.derandomized_p_reject == pytest.approx(0.0, abs=1e-9)
    assert report.dominated
    assert report.decisions == 4
    assert all(isinstance(s, DerandomizedStrategy) for s in det)
    # the distilled tables replay through the ordinary engine
    space = max(1, p.cutoff)
    provers = tuple(
        ProverSpec(
            index=i + 1,
            comm_alphabet=p.verifier.comm_alphabets[i],
            tape_alphabet=p.verifier.comm_alphabets[i],
            space=space,
            strategy=det[i],
        )
        for i in range(p.k)
    )
    fixed = ProtocolSpec(p.name, p.verifier, provers, p.a, p.b, p.cutoff)
    result = run_classical(fixed, "1")
    assert result.p_reject == pytest.approx(report.derandomized_p_reject, abs=1e-9)


def test_derandomize_equality_case():
    p = corpus.build("no_comm")
    strategies = (rotation_reply(BLANK, "g"), constant_reply(BLANK))
    _, report = derandomize_provers(p, "0", strategies)
    assert report.quantum_p_reject == pytest.approx(0.5, abs=1e-9)
    assert report.derandomized_p_reject <= report.quantum_p_reject + 1e-9
    assert report.dominated


def test_derandomize_rejects_quantum_verifier_and_bad_arity():
    with pytest.raises(ValidationError):
        derandomize_provers(
            corpus.build("coinflip_quantum"), "0", (constant_reply(BLANK),)
        )
    with pytest.raises(ValidationError):
        derandomize_provers(corpus.build("no_comm"), "0", (constant_reply(BLANK),))
    with pytest.raises(ValidationError, match="cutoff must be at least 1"):
        derandomize_provers(
            corpus.build("no_comm"), "0", (constant_reply(BLANK), constant_reply(BLANK)), cutoff=0
        )


def test_derandomize_checks_the_round_mass():
    verifier = VerifierSpec(
        mode="1pfa",
        states=("q0", "acc", "rej"),
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=((BLANK,),),
        rows={("q0", LEFT_END, (BLANK,)): (("acc", 1, (BLANK,), 0.5), ("rej", 1, (BLANK,), 0.9))},
        fallback=None,
    )
    prover = ProverSpec(
        index=1, comm_alphabet=(BLANK,), tape_alphabet=(BLANK,), space=0, strategy=EraserStrategy()
    )
    p = ProtocolSpec(name="heavy", verifier=verifier, provers=(prover,), a=1.0, b=1.0, cutoff=2)
    with pytest.raises(RunFault, match="round 1 is not mass-preserving: 1 -> 1.4"):
        run_classical(p, "0")
    with pytest.raises(RunFault, match="round 1 is not mass-preserving: 1 -> 1.4"):
        derandomize_provers(p, "0", [EraserStrategy()])


def test_derandomize_refuses_tape_entangling_strategies():
    class Entangler:
        label = "entangler"

        def apply_quantum(self, step, comm, tape):
            h = 0.7071067811865476
            t1 = ("a",) + tape[1:]
            t2 = ("b",) + tape[1:]
            return [((BLANK, t1), complex(h)), ((BLANK, t2), complex(h))]

    with pytest.raises(Unbounded):
        derandomize_provers(
            corpus.build("no_comm"), "0", (Entangler(), constant_reply(BLANK))
        )


def test_derandomize_decision_cap():
    p = corpus.build("parity_relay")
    strategies = (rotation_reply(BLANK, "1"), constant_reply(BLANK))
    with pytest.raises(Unbounded):
        derandomize_provers(p, "1", strategies, limit=2)


# The old derandomization loop, kept as a staged reference: a tree run with one
# measured operator per prover, rerun up to a (step, prover) pause before every
# decision. Its verifier pass is the engine's, so agreement is exact.


def _reference_tree(p, x, strategies, pins, pause=None):
    """(p_acc, p_rej), or with pause=(step, i) the state right before prover i moves at step."""

    def measured(i, step):
        def op(config):
            moves = strategies[i].apply_quantum(step, config.comm[i], config.tapes[i])
            pinned = pins[i].get((step, config.comm[i], config.tapes[i]))
            if pinned is not None:
                moves = [(t, a) for t, a in moves if t[0] == pinned]
                scale = sum((a * a.conjugate()).real for _, a in moves) ** -0.5
                moves = [(t, a * scale) for t, a in moves]
            out = []
            for (reply, new_tape), amp in sorted(moves, key=lambda m: m[0][0]):
                if abs(amp) > 1e-12:
                    comm = config.comm[:i] + (reply,) + config.comm[i + 1:]
                    tapes = config.tapes[:i] + (new_tape,) + config.tapes[i + 1:]
                    out.append((Configuration(config.state, config.head, comm, tapes), (amp * amp.conjugate()).real))
            return out
        return op

    tape = input_tape(x, p.verifier)
    state = {Configuration(p.verifier.initial, 0, (BLANK,) * p.k, ((BLANK,) * p.cutoff,) * p.k): 1.0 + 0j}
    total_acc = total_rej = 0.0
    for j in range(1, p.cutoff + 1):
        for i in range(p.k if j >= 2 else 0):
            if pause == (j - 1, i):
                return state
            state = apply_sparse_operator(measured(i, j - 1), state)
        _, acc, rej, state = _verify_and_measure(state, p.verifier, tape, quantum=False)
        total_acc += acc
        total_rej += rej
        if sum(a.real for a in state.values()) <= PRUNE_TOL:
            break
    return {} if pause else (total_acc, total_rej)


def _reference_derandomize(p, x, strategies):
    pins = [{} for _ in strategies]
    q_acc, q_rej = _reference_tree(p, x, strategies, pins)
    decisions = 0
    for step in range(1, p.cutoff):
        for i, strategy in enumerate(strategies):
            paused = _reference_tree(p, x, strategies, pins, pause=(step, i))
            for sigma, y in dict.fromkeys((c.comm[i], c.tapes[i]) for c in paused):
                key = (step, sigma, y)
                moves = strategy.apply_quantum(step, sigma, y)
                decisions += 1
                best = None
                for tau in sorted({reply for (reply, _), amp in moves if abs(amp) > 1e-12}):
                    pins[i][key] = tau
                    rej = _reference_tree(p, x, strategies, pins)[1]
                    if best is None or rej < best[0] - 1e-12:
                        best = (rej, tau)
                pins[i][key] = best[1]
    det = tuple(DerandomizedStrategy(choices=dict(choices)) for choices in pins)
    d_acc, d_rej = _reference_tree(p, x, det, [{} for _ in det])
    return [s.choices for s in det], DerandomizeReport(q_acc, q_rej, d_acc, d_rej, decisions)


def _echo_relay():
    """The verifier sends prover 1's last reply back to it, so a pinned reply changes what is reachable."""
    cells = (BLANK, "a", "b")
    rows = {("e", LEFT_END, (BLANK, BLANK)): (("e", 1, (BLANK, BLANK), 1.0),)}
    for c in cells:
        rows[("e", "0", (c, BLANK))] = (("e", 1, (c, BLANK), 1.0),)
        rows[("e", "$", (c, BLANK))] = (("acc" if c == "a" else "rej", 1, (BLANK, BLANK), 1.0),)
    verifier = VerifierSpec(
        mode="1pfa", states=("e", "acc", "rej"), initial="e", accept=frozenset({"acc"}),
        reject=frozenset({"rej"}), input_alphabet=("0",), comm_alphabets=(cells, (BLANK,)), rows=rows,
    )
    provers = tuple(
        ProverSpec(index=i + 1, comm_alphabet=alphabet, tape_alphabet=alphabet, space=5, strategy=echo_reply())
        for i, alphabet in enumerate(verifier.comm_alphabets)
    )
    return ProtocolSpec("echo_relay", verifier, provers, 1.0, 1.0, 5)


@pytest.mark.parametrize("name", ["no_comm", "parity_relay", "echo_relay"])
@pytest.mark.parametrize("length", range(4))
@pytest.mark.parametrize("sign", [1, -1])
def test_derandomize_matches_the_staged_reference(name, length, sign):
    p = _echo_relay() if name == "echo_relay" else corpus.build(name)
    symbol = p.verifier.input_alphabet[0]
    first = p.verifier.comm_alphabets[0]
    for constant in p.verifier.comm_alphabets[1]:
        strategies = (rotation_reply(first[0], first[1], sign), constant_reply(constant))
        det, report = derandomize_provers(p, symbol * length, strategies)
        choices, want = _reference_derandomize(p, symbol * length, strategies)
        assert [s.choices for s in det] == choices
        assert report == want
