import cmath
import collections
import dataclasses
import functools
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
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
from qmipsim.amplitudes import apply_sparse_operator
from qmipsim.engine import (
    Configuration,
    _verify_and_measure,
    input_tape,
    simulate,
)
from qmipsim.errors import AlphabetMismatch, FamilyTooLarge, MissingTransition, RunFault, Unbounded, ValidationError
from qmipsim.specs import (
    BLANK,
    LEFT_END,
    RIGHT_END,
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
from qmipsim.tolerances import PRUNE_TOL


# ---------------------------------------------------------------- families


def test_reply_sequence_family_enumerates_all_sequences():
    fam = reply_sequence_family(1, ("#", "g"), 2)
    # 2^2 fixed sequences plus the echo
    assert len(fam.strategies) == 5
    labels = [s.label for s in fam.strategies]
    assert "seq:#,#" in labels and "seq:g,g" in labels and "echo" in labels


def test_fixed_replies_answer_as_the_reply_closures_did():
    # the closures that `constant_reply` and `_sequence_strategy` returned
    # before their replies became `specs.FixedReplies`
    def old_constant(symbol):
        return lambda step, recv: [(symbol, 1.0 + 0j)]

    def old_sequence(seq):
        return lambda step, recv, seq=seq: [(seq[min(step, len(seq)) - 1], 1.0 + 0j)]

    cases = [(constant_reply("g").fn, old_constant("g"), 1)]
    for seq in ((BLANK,), (BLANK, "1"), ("1", BLANK, BLANK, "0", "1", BLANK, "1")):
        cases.append((adversary._sequence_strategy(seq).fn, old_sequence(seq), len(seq)))
    for fn, old, length in cases:
        assert type(fn) is specs.FixedReplies
        for step in range(1, length + 3):
            for recv in (BLANK, "1", track("1", BLANK)):
                got = fn(step, recv)
                assert got == old(step, recv)
                assert [type(amp) for _, amp in got] == [complex]
    # past the end of the sequence, the last reply
    assert adversary._sequence_strategy(("a", "b")).fn(3, BLANK) == [("b", 1.0 + 0j)]


def test_constants_with_one_symbol_compare_equal():
    assert constant_reply("g") == constant_reply("g")
    assert hash(constant_reply("g")) == hash(constant_reply("g"))
    assert constant_reply("g") != constant_reply("h")
    # `fn` takes no part in equality, only the label does
    assert constant_reply("g") == LoggedReplyStrategy("const:g", echo_reply().fn)


def test_track_probe_shifts_equal_xor_symbols():
    alphabet = corpus.build("no_comm_reduce").verifier.comm_alphabets[0]
    encoding = specs.fixed_width_binary_encoding(adversary._track_base(alphabet))
    shifts = [s for s in track_probe_family(1, alphabet).strategies if s.label.startswith("shift:")]
    assert len(shifts) == 15
    for shift in shifts:
        s = shift.label[len("shift:"):]
        for recv in alphabet:
            upper, lower = specs.parse_track(recv)
            assert shift.fn(1, recv) == [(track(upper, specs.xor_symbols(encoding, lower, s)), 1.0 + 0j)]


def test_track_probe_shifts_off_a_power_of_two_base_raise_the_xor_error():
    base = (BLANK, "a", "b")
    alphabet = specs.make_track_alphabet(base, base)
    encoding = specs.fixed_width_binary_encoding(base)
    shift = next(s for s in track_probe_family(1, alphabet).strategies if s.label == "shift:a")
    assert shift.fn(1, track("b", "a")) == [(track("b", BLANK), 1.0 + 0j)]
    with pytest.raises(AlphabetMismatch) as expected:
        specs.xor_symbols(encoding, "b", "a")
    with pytest.raises(AlphabetMismatch) as raised:
        shift.fn(1, track("a", "b"))
    assert str(raised.value) == str(expected.value)
    with pytest.raises(KeyError):
        shift.fn(1, track("a", "c"))


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
# combination's strategies plugged in, whichever block of the sweep's tree ran
# it. The `blocks` fixture records every block a sweep runs, in order: the
# round it runs, its combinations as per-slot labels, its key per slot (None
# where no token counts) and the rounds it runs through the engine's round
# driver. That is none when every group of the block takes its halted
# triple, one otherwise, and two when a round faults while the block's keys
# count and runs again with none; a round that faults counts. Round 1 runs
# once, before any block.


@pytest.fixture
def blocks(monkeypatch):
    ran, inside = [], []
    run, rounds = adversary._Stage.run, adversary._rounds

    def running(self, tag, picks):
        if not inside:
            labels = tuple(tuple(specs.strategy_label(f.strategies[i]) for i in t) for f, t in zip(self.families, tag))
            ran.append([self.node[0] + 1, labels, picks, 0])
        inside.append(tag)
        try:
            return run(self, tag, picks)
        finally:
            inside.pop()

    def driver(p, x, after=None):
        if inside:
            ran[-1][3] += 1
        return rounds(p, x, after)

    monkeypatch.setattr(adversary._Stage, "run", running)
    monkeypatch.setattr(adversary, "_rounds", driver)
    return ran


def _driven(blocks):
    """(round, driver rounds) of every block, in the order they ran."""
    return [(j, driven) for j, _, _, driven in blocks]


def _first(block):
    """The labels of a block's first combination, the one its driver round runs."""
    return tuple(labels[0] for labels in block[1])


def _combos(block):
    """The labels of every combination of a block, in product order."""
    return list(itertools.product(*block[1]))


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


def _rejected_unnamed_constants(p):
    """The last prover's default constants that the guard rejects and no explicit row names."""
    slot = p.k - 1
    named = {comm[slot] for _, _, comm in p.verifier.rows}
    constants = (s for s in default_families(p)[slot].strategies if s.label.startswith("const:"))
    replies = ((s, s.fn(1, BLANK)[0][0]) for s in constants)
    return tuple(s for s, reply in replies if reply not in named and p.verifier.fallback.rejects(slot, reply))


@pytest.mark.parametrize("objective", ["max-accept", "min-reject"])
def test_track_probe_sweep_matches_simulate(objective, blocks):
    p = corpus.build("no_comm_reduce")
    families = _track_probe_sample(p, 2024)
    assert [len(f.strategies) for f in families] == [16, 16]
    result = _assert_matches_simulate(p, "0", families, objective)
    assert len({(acc, rej) for _, acc, rej in result.table}) >= 3
    # every combination halts in round 2, whose blocks run one driver round at most
    assert set(_driven(blocks)) == {(2, 0), (2, 1)}
    assert len(blocks) < result.evaluated


def test_rejected_replies_that_no_row_names_are_scored_once_per_class_tuple(blocks):
    # every such reply sends each group to its halted triple, so they form one
    # class; echo and upper:# move alike on every local state of round 1, so
    # the six first picks are five classes, one block each, and every group of
    # each block takes its halted triple: no block runs a driver round
    p = corpus.build("no_comm_reduce")
    picks = {"const:#", f"const:{track('g', BLANK)}", "echo", "shift:g", "upper:#", "upper:g"}
    first = tuple(s for s in default_families(p)[0].strategies if s.label in picks)
    tail = _rejected_unnamed_constants(p)[:8]
    assert (len(first), len(tail)) == (6, 8)
    families = (StrategyFamily(1, "picks", first), StrategyFamily(2, "rejected", tail))
    _assert_matches_simulate(p, "0", families)
    assert _driven(blocks) == [(2, 0)] * (len(first) - 1)


def test_classical_sweep_matches_simulate(blocks):
    # without a guard there is no token: the 6 combinations are 2 blocks of
    # equal replies, each one driver round
    p = corpus.build("no_comm")
    for x in ("0", "00"):
        result = _assert_matches_simulate(p, x, default_families(p))
        assert result.evaluated == 6
    assert _driven(blocks) == [(2, 1)] * 4


def test_a_cutoff_1_sweep_runs_no_round_after_round_1(blocks):
    # provers first move in round 2, so at cutoff 1 round 1 is every combination's whole run
    p = corpus.build("no_comm")
    result = search(p, "0", cutoff=1, keep_table=True)
    combos = list(itertools.product(*(fam.strategies for fam in default_families(p, 1))))
    assert blocks == []
    assert result.evaluated == len(result.table) == 6
    for combo, (labels, acc, rej) in zip(combos, result.table):
        run = simulate(_trial(p, combo), "0", cutoff=1)
        assert labels == tuple(s.label for s in combo)
        assert (acc, rej) == (run.p_accept, run.p_reject), labels
    assert result.best_leftover == 1.0


def test_classical_sweep_on_the_empty_input_stays_fused(blocks):
    # only quantum head moves can collide on the two-cell tape of ""
    p = corpus.build("no_comm")
    _assert_matches_simulate(p, "", default_families(p))
    assert _driven(blocks) == [(2, 1)] * 2


def test_three_prover_sweep_matches_simulate(blocks):
    p = corpus.build("no_comm_lift")
    result = _assert_matches_simulate(p, "0", default_families(p))
    assert result.evaluated == 66
    # 2 x 1 x 2 class tuples; the eraser slot's guard-rejected replies share one token
    assert _driven(blocks) == [(2, 1), (2, 0), (2, 1), (2, 0)]


def test_foreign_guard_sweep_matches_simulate(blocks):
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
    assert set(_driven(blocks)) == {(2, 0), (2, 1)}
    assert len(blocks) < result.evaluated


def test_mass_drift_raises_the_round_fault(blocks):
    class Forgetful:
        """Replies with the blank and leaves its tape alone, merging receptions."""
        label = "forgetful"

        def apply_quantum(self, step, comm, tape):
            return [((BLANK, tape), 1.0 + 0j)]

    p = corpus.build("no_comm_reduce")
    # prover 2's echo keeps the merged receptions apart: the forgetful block runs its driver round, still exact
    families = (
        StrategyFamily(1, "picks", (constant_reply(BLANK), Forgetful())),
        StrategyFamily(2, "picks", (echo_reply(),)),
    )
    _assert_matches_simulate(p, "0", families)
    assert [(_first(block), block[2] is None, block[3]) for block in blocks] == [
        (("const:#", "echo"), False, 1), (("forgetful", "echo"), True, 1),
    ]
    blocks.clear()
    families = tuple(StrategyFamily(i + 1, "forgetful", (Forgetful(),)) for i in range(p.k))
    with pytest.raises(RunFault, match="round 2 is not mass-preserving"):
        search(p, "0", families=families)
    assert _driven(blocks) == [(2, 1)]


def test_a_non_unitary_row_in_round_2_raises_the_round_fault(blocks):
    # one explicit row reached in round 2 gains mass; the block's driver round,
    # which took the halted triples of the other groups, faults, and runs
    # again with no token, which raises simulate's fault
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
    assert _driven(blocks) == [(2, 2)]


def test_longer_sweeps_run_only_round_2_survivors(blocks):
    # every combination of the lift halts in round 2, so no block runs round 3
    p = corpus.build("no_comm_lift")
    result = _assert_matches_simulate(dataclasses.replace(p, cutoff=3), "0", default_families(p, 3))
    assert result.evaluated == 1010
    assert _driven(blocks) == [(2, 1), (2, 0), (2, 1), (2, 0)]


def test_deep_sweeps_run_exactly_the_round_2_survivors(blocks):
    # on the reduced relay a few combinations keep their mass past round 2:
    # those alone reach round 3, in blocks of one driver round each
    p = dataclasses.replace(_reduced_parity_relay(), cutoff=3)
    picks = {"const:#", f"const:{track('1', BLANK)}", "echo", "shift:1", "upper:#", "upper:1"}
    families = tuple(
        StrategyFamily(f.prover_index, f.label, tuple(s for s in f.strategies if s.label in picks))
        for f in default_families(p)
    )
    assert [len(f.strategies) for f in families] == [6, 6]
    result = _assert_matches_simulate(p, "1", families)
    survivors = [
        labels
        for (labels, _, _), combo in zip(result.table, itertools.product(*(f.strategies for f in families)))
        if simulate(_trial(p, combo), "1", cutoff=2).leftover > PRUNE_TOL
    ]
    assert 0 < len(survivors) < result.evaluated
    assert sorted(combo for block in blocks if block[0] == 3 for combo in _combos(block)) == sorted(survivors)
    assert {driven for j, driven in _driven(blocks) if j == 3} == {1}
    assert len([j for j, _ in _driven(blocks) if j == 3]) < len(survivors)


def test_a_deep_sweep_builds_each_column_once(column_builds, blocks):
    # round 1 and every block's driver round read the verifier's column
    # cache; a sweep before it warms the cache of p's verifier, not of its copy
    p = _reduced_parity_relay()
    search(p, "1", cutoff=3)
    p = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier))
    built, lookups = column_builds
    built.clear()
    lookups.clear()
    blocks.clear()
    search(p, "1", cutoff=3)
    assert (3, 1) in _driven(blocks)
    assert len(lookups) == len(built) == len(set(built)) > 0


@pytest.mark.parametrize("objective", ["max-accept", "min-reject"])
def test_full_sweeps_score_360_class_tuples(objective, blocks):
    # the full C5 sweep runs round 2 in 360 blocks, one per class tuple, and
    # only the 68 with a group that takes no halted triple run a driver round;
    # the reduced relay at cutoff 3 carries the 73 combinations that keep their
    # mass past round 2 into round 3. A sweep that lost its tokens would run more
    p = corpus.build("no_comm_reduce")
    for x in ("0", ""):
        blocks.clear()
        assert search(p, x, objective=objective).evaluated == 82944
        assert sorted(set(_driven(blocks))) == [(2, 0), (2, 1)]
        assert (len(blocks), sum(driven for _, driven in _driven(blocks))) == (360, 68)
    blocks.clear()
    assert search(_reduced_parity_relay(), "1", objective=objective, cutoff=3).evaluated == 82944
    assert [j for j, _ in _driven(blocks)].count(2) == 360
    assert sum(len(_combos(block)) for block in blocks if block[0] == 3) == 73


def test_parity_relay_sweeps_split_the_reply_sequences_round_by_round(blocks):
    # the first prover's 7-reply sequences split by their reply at each step,
    # one block per node and one driver round per block: on 11 the relay halts
    # by round 4, so 14 driver rounds stand for 258 runs of up to 8 rounds
    p = corpus.build("parity_relay")
    result = _assert_matches_simulate(p, "11", default_families(p))
    assert result.evaluated == 258
    assert collections.Counter(_driven(blocks)) == {(2, 1): 2, (3, 1): 4, (4, 1): 8}
    assert sum(len(_combos(block)) for block in blocks if block[0] == 2) == 258
    for j, labels, _, _ in blocks:
        # a block of round j holds sequences that agree on their replies up to step j - 1
        assert len({tuple(label[4:].split(",")[:j - 1]) for label in labels[0] if label.startswith("seq:")}) == 1
        if j > 2:
            combos = set(_combos([j, labels]))
            assert sum(combos <= set(_combos(parent)) for parent in blocks if parent[0] == j - 1) == 1


def test_a_rotation_lift_sweep_at_cutoff_4_matches_simulate(blocks):
    # each rotation branches, so it is a class of its own and its blocks count
    # no token, while the other provers' sequences keep their classes
    p = dataclasses.replace(corpus.build("no_comm_lift"), cutoff=4)
    families = (rotation_family(1, p.verifier.comm_alphabets[0]),) + default_families(p)[1:]
    result = _assert_matches_simulate(p, "0", families)
    assert result.evaluated == 4004
    assert {len(labels[0]) for _, labels, _, _ in blocks} == {1}
    assert all(picks is None for _, _, picks, _ in blocks)
    assert len(blocks) < 10


def test_a_proverless_sweep_runs_past_round_1(blocks):
    # a one-way coin on 000 halts half its mass on each 0 and the rest on $:
    # its one combination, the empty one, is one block per round
    verifier = VerifierSpec(
        mode="1pfa",
        states=("q", "acc", "rej"),
        initial="q",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=("0",),
        comm_alphabets=(),
        rows={
            ("q", LEFT_END, ()): (("q", 1, (), 1.0),),
            ("q", "0", ()): (("q", 1, (), 0.5), ("acc", 1, (), 0.5)),
            ("q", RIGHT_END, ()): (("rej", 1, (), 1.0),),
        },
    )
    p = ProtocolSpec("coin", verifier, (), 1.0, 1.0, 6)
    specs.validate_protocol(p)
    result = search(p, "000", keep_table=True)
    run = simulate(p, "000")
    assert result.table == [((), run.p_accept, run.p_reject)]
    assert (result.best_value, result.best_leftover, result.evaluated) == (run.p_accept, run.leftover, 1)
    assert run.halted_round == 5
    assert _driven(blocks) == [(2, 1), (3, 1), (4, 1), (5, 1)]


@pytest.mark.parametrize("step", [2, 3])
def test_a_strategy_that_fails_or_replies_none_at_a_later_step_raises_the_runs_error(step, blocks):
    # the strategy moves as const:# up to `step` and shares its blocks; at
    # `step` it opts out, and its own block's driver round raises its run's error
    p = corpus.build("parity_relay")

    def failing(at, recv):
        if at == step:
            raise MissingTransition(f"failing: no reply at step {at}")
        return [(BLANK, 1.0 + 0j)]

    none = LoggedReplyStrategy("none", lambda at, recv: [(None if at == step else BLANK, 1.0 + 0j)])
    for strategy in (LoggedReplyStrategy("failing", failing), none):
        with pytest.raises(MissingTransition) as expected:
            simulate(_trial(p, (strategy, echo_reply())), "11")
        blocks.clear()
        families = (StrategyFamily(1, "picks", (constant_reply(BLANK), strategy)), StrategyFamily(2, "echo", (echo_reply(),)))
        with pytest.raises(MissingTransition) as raised:
            search(p, "11", families=families)
        assert str(raised.value) == str(expected.value)
        assert [block[1] for block in blocks[:step - 1]] == [(("const:#", strategy.label), ("echo",))] * (step - 1)
        assert blocks[-1][:3] == [step + 1, ((strategy.label,), ("echo",)), None]


def test_the_first_combination_that_faults_raises_whatever_its_round(blocks):
    # `late` fails at step 3 and comes first in product order, `early` fails
    # at step 2: blocks run in product order of their first combinations, so
    # the sweep raises late's error, though early's round comes sooner
    p = corpus.build("parity_relay")

    def failing(label, step):
        def fn(at, recv):
            if at == step:
                raise MissingTransition(f"{label}: no reply at step {at}")
            return [(BLANK, 1.0 + 0j)]
        return LoggedReplyStrategy(label, fn)

    families = (StrategyFamily(1, "picks", (failing("late", 3), failing("early", 2))),
                StrategyFamily(2, "echo", (echo_reply(),)))
    with pytest.raises(MissingTransition, match="late: no reply at step 3"):
        search(p, "11", families=families)
    assert [(block[0], _first(block)) for block in blocks] == [
        (2, ("late", "echo")), (3, ("late", "echo")), (4, ("late", "echo")),
    ]


class _Forgetful:
    """Replies with the blank and leaves its tape alone, merging receptions."""
    label = "forgetful"

    def apply_quantum(self, step, comm, tape):
        return [((BLANK, tape), 1.0 + 0j)]


def test_an_opt_out_that_merges_halting_groups_turns_the_tokens_off(blocks):
    # qa's two sources receive (u, u) and (u, v); z, which the guard rejects
    # and no row receives, holds the token at u, where both groups halt through
    # the guard. The forgetful second prover keeps its blank tape, so its move
    # merges the two groups and the round gains mass. Their halted triples
    # would miss that; with the opt-out in the block no token counts, and the
    # driver raises the run's fault
    h = 2 ** -0.5
    ra = specs.guard_state("rejf", "qa", LEFT_END)
    p = _guarded(first=(("qa", 0, ("u", "u"), h), ("qa", 0, ("u", "v"), h)), rows={}, accept={"acc"},
                 reject={ra}, minted={ra}, k=2)
    assert _stage(p, "0").key(0, constant_reply("z")) == (None,)
    with pytest.raises(RunFault, match="round 2 is not mass-preserving") as expected:
        simulate(_trial(p, (constant_reply("z"), _Forgetful())), "0")
    families = (StrategyFamily(1, "picks", (constant_reply("z"),)), StrategyFamily(2, "picks", (_Forgetful(),)))
    with pytest.raises(RunFault) as raised:
        search(p, "0", families=families)
    assert str(raised.value) == str(expected.value)
    assert [(block[2], block[3]) for block in blocks] == [(None, 1)]


def test_a_fixed_reply_is_asked_and_its_token_decided_once_per_strategy(monkeypatch):
    # the track guard decides each constant's token once, not once per local
    # state, and its key is the one the per-state rule gives the same replies
    p = corpus.build("no_comm_reduce")
    stage = _stage(p, "0")
    assert len(stage.local_states[0]) == 16
    constants = [s for s in default_families(p)[0].strategies if s.label.startswith("const:")]
    calls = []
    rejects = specs.TrackGuard.rejects
    monkeypatch.setattr(specs.TrackGuard, "rejects", lambda self, slot, symbol: calls.append(symbol) or rejects(
        self, slot, symbol))
    keys = [stage.key(0, s) for s in constants]
    assert 0 < len(calls) <= len(constants)
    asked = [stage.key(0, LoggedReplyStrategy(s.label, lambda step, recv, fn=s.fn: fn(step, recv))) for s in constants]
    assert keys == asked
    # rejected constants share the token at every local state: one class
    assert len(set(keys)) < len(keys)


def test_branching_strategies_mixed_into_a_family_match_simulate(blocks):
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
    # each rotation is a class of its own, and only its 3 blocks run with no token, per objective
    untokened = [block for block in blocks if block[2] is None]
    assert [_first(block) for block in untokened] == [
        (r.label, t.label) for r in mixed[1::2] for t in families[1].strategies
    ] * 2
    assert {(len(_combos(block)), block[3]) for block in untokened} == {(1, 1)}
    assert len(blocks) == 2 * 12


def test_sweeps_on_the_two_cell_tape_raise_the_collision(blocks):
    # on "" the moves +1 and -1 of q1's row land on one cell; the driver reads
    # the engine's column, which faults there, so const:a's block raises,
    # while const:# meets a plain row and its block runs
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
    p = ProtocolSpec("collide", verifier, (transforms.make_eraser(1, comm, cutoff=2),), 1.0, 1.0, 2)
    families = (StrategyFamily(1, "picks", (constant_reply(BLANK), constant_reply("a"))),)
    with pytest.raises(RunFault, match=r"moves \+1 and -1 both land on"):
        search(p, "", families=families)
    # const:a's round faults while its key counts, and faults again with none
    assert [(_first(block), block[3]) for block in blocks] == [(("const:#",), 1), (("const:a",), 2)]


# no_comm_reduce: the track probes that reach explicit rows; no_comm_lift: a
# seeded draw of up to 6 default strategies per prover
_EMPTY_INPUT_FAMILIES = {
    "no_comm_reduce": lambda p, seed: _track_probe_sample(p, seed),
    "no_comm_lift": lambda p, seed: tuple(
        StrategyFamily(f.prover_index, f.label, tuple(random.Random(f"{seed}/{f.prover_index}").sample(
            f.strategies, min(6, len(f.strategies)))))
        for f in default_families(p)
    ),
}


@pytest.mark.parametrize("objective", ["max-accept", "min-reject"])
@pytest.mark.parametrize("seed", [7, 2024])
@pytest.mark.parametrize("name", sorted(_EMPTY_INPUT_FAMILIES))
def test_quantum_sweeps_on_the_empty_input_are_scored(name, seed, objective, blocks):
    # the two-cell tape of "" goes through the engine's column like any other
    # tape: with no row whose head moves collide there, no round faults
    p = corpus.build(name)
    result = _assert_matches_simulate(p, "", _EMPTY_INPUT_FAMILIES[name](p, seed), objective)
    assert len({(acc, rej) for _, acc, rej in result.table}) >= 2
    assert set(_driven(blocks)) <= {(2, 0), (2, 1)}
    assert len(blocks) < result.evaluated


def test_the_best_leftover_is_a_float_with_tokens_or_without(blocks):
    p = corpus.build("no_comm_lift")
    scored = search(p, "0")
    assert all(block[2] is not None for block in blocks)
    assert type(scored.best_leftover) is float
    rotations = (rotation_family(1, p.verifier.comm_alphabets[0]),) + tuple(
        StrategyFamily(f.prover_index, f.label, f.strategies[:1]) for f in default_families(p)[1:]
    )
    blocks.clear()
    untokened = search(p, "0", families=rotations)
    assert untokened.best_labels in [_first(block) for block in blocks if block[2] is None]
    assert type(untokened.best_leftover) is float


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
# Sources that share every slot's local state form an interference group. A
# group whose members all fall to the guard and halt there adds its triple,
# measured once per node, to every block whose key holds the token there;
# every other group runs through the block's driver round. These sweeps sit
# on each edge of that shortcut.

_BASE = (BLANK, "u", "v", "p")


def _guarded(first, rows, accept, reject, minted, k=1):
    """A k-prover 2qfa that sends `first` from q0 in round 1 and rejects
    foreign symbols through a ForeignGuard that knows the `minted` states."""
    states = dict.fromkeys(["q0", *(q for q, *_ in first), *sorted(accept | reject | minted)])
    comm = _BASE + ("w", "y", "z")
    verifier = VerifierSpec(
        mode="2qfa",
        states=tuple(states),
        initial="q0",
        accept=frozenset(accept),
        reject=frozenset(reject),
        input_alphabet=("0",),
        comm_alphabets=(comm,) * k,
        rows={("q0", LEFT_END, (BLANK,) * k): first, **rows},
        fallback=ForeignGuard(slot_bases=(_BASE,) * k, known_states=frozenset(minted)),
    )
    provers = tuple(transforms.make_eraser(i + 1, comm, cutoff=2) for i in range(k))
    return ProtocolSpec("guarded", verifier, provers, 1.0, 1.0, 2)


def _split_group():
    """qa and qb both receive u, so a foreign reply z sends both to the
    guard-matching reception (z,); qa has an explicit row for it and accepts,
    qb has none."""
    h = 2 ** -0.5
    ra, rb = specs.guard_state("rejf", "qa", LEFT_END), specs.guard_state("rejf", "qb", LEFT_END)
    return _guarded(
        first=(("qa", 0, ("u",), h), ("qb", 0, ("u",), h)),
        rows={("qa", LEFT_END, ("z",)): (("acc", 1, (BLANK,), 1.0),)},
        accept={"acc"},
        reject={ra, rb},
        minted={ra, rb},
    )


def test_group_split_between_a_row_and_the_guard_is_scored_per_source(blocks):
    families = (StrategyFamily(1, "picks", (constant_reply("z"), constant_reply("y"))),)
    result = _assert_matches_simulate(_split_group(), "0", families)
    assert [entry[1:] for entry in result.table] == [pytest.approx((0.5, 0.5)), pytest.approx((0.0, 1.0))]
    # z, which qa's row receives, runs the group through the driver; y takes its halted triple
    assert [(block[2], block[3]) for block in blocks] == [((("z",),), 1), (((None,),), 0)]


def test_a_row_named_rejected_cell_keeps_its_own_score(blocks):
    # y and w halt through the guard alike and share one score; z, which the
    # guard rejects too, completes qa's row and is scored on its own
    families = (StrategyFamily(1, "picks", (constant_reply("y"), constant_reply("z"), constant_reply("w"))),)
    result = _assert_matches_simulate(_split_group(), "0", families)
    assert [entry[1:] for entry in result.table] == [
        pytest.approx((0.0, 1.0)), pytest.approx((0.5, 0.5)), pytest.approx((0.0, 1.0)),
    ]
    assert [(block[2][-1][0], block[3]) for block in blocks] == [(None, 0), ("z", 1)]


def _split_pair():
    """`_split_group` with a second prover: qa and qb both receive (u, u), and
    only qa has an explicit row for (z, #), so z is named at the first slot."""
    h = 2 ** -0.5
    ra, rb = specs.guard_state("rejf", "qa", LEFT_END), specs.guard_state("rejf", "qb", LEFT_END)
    return _guarded(
        first=(("qa", 0, ("u", "u"), h), ("qb", 0, ("u", "u"), h)),
        rows={("qa", LEFT_END, ("z", BLANK)): (("acc", 1, (BLANK, BLANK), 1.0),)},
        accept={"acc"},
        reject={ra, rb},
        minted={ra, rb},
        k=2,
    )


def test_a_row_named_rejected_cell_keeps_its_own_score_in_the_first_slot(blocks):
    # the first-slot mirror of the test above: y and w halt through the guard
    # alike and share a class in both slots; z, which the guard rejects too,
    # completes qa's row after # and keeps its own class
    families = (
        StrategyFamily(1, "picks", (constant_reply("y"), constant_reply("z"), constant_reply("w"))),
        StrategyFamily(2, "picks", (constant_reply(BLANK), constant_reply("y"), constant_reply("w"))),
    )
    result = _assert_matches_simulate(_split_pair(), "0", families)
    rejected = pytest.approx((0.0, 1.0))
    assert [entry[1:] for entry in result.table] == [rejected] * 3 + [
        pytest.approx((0.5, 0.5)), rejected, rejected,
    ] + [rejected] * 3
    # the class tuples ({y, w} or {z}) x (# or {y, w}), one block each
    assert [(block[2][-1][0], block[3]) for block in blocks] == [("#", 0), (None, 0), ("#", 1), (None, 0)]


class _Relabel:
    """Replies p to u and z to v and leaves its tape alone: two receptions,
    two replies, one new tape. Not a `LoggedReplyStrategy`, so it opts out."""
    label = "relabel"

    def apply_quantum(self, step, comm, tape):
        return [(({"u": "p", "v": "z"}[comm], tape), 1.0 + 0j)]


def test_a_row_into_a_guard_minted_state_turns_the_shortcut_off(blocks):
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
    assert [(block[2], block[3]) for block in blocks] == [(None, 1)]


def test_a_row_into_a_guard_minted_state_misses_another_groups_logged_tape(blocks):
    # qa's row on p lands on rejf[qb|¢] at head 1 with (z,), where qb's group
    # falls to the guard on z; qa logged u and qb logged v, so the two never
    # meet, and qb's group is scored by the halted shortcut
    h = 2 ** -0.5
    rb = specs.guard_state("rejf", "qb", LEFT_END)
    p = _guarded(
        first=(("qa", 0, ("u",), h), ("qb", 0, ("v",), h)),
        rows={("qa", LEFT_END, ("p",)): ((rb, 1, ("z",), 1.0),)},
        accept={"acc"},
        reject={rb},
        minted={rb},
    )
    assert [halted for *_, halted in _stage(p, "0").groups] == [None, pytest.approx((0.5, 0.0, 0.5))]
    relabel = LoggedReplyStrategy("relabel", lambda step, recv: [({"u": "p", "v": "z"}[recv], 1.0 + 0j)])
    result = _assert_matches_simulate(p, "0", (StrategyFamily(1, "picks", (relabel,)),))
    assert result.table[0][1:] == pytest.approx((0.0, 1.0))
    # qb's group takes its triple, and qa's runs through the driver
    assert [(block[2], block[3]) for block in blocks] == [((("p", None),), 1)]


def test_a_guard_target_that_does_not_halt_stays_in_the_residual(blocks):
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
    assert [(block[2], block[3]) for block in blocks] == [((("z",),), 1), ((("y",),), 1)]


def _phased(label, reply, angle):
    return LoggedReplyStrategy(label, lambda step, recv: [(reply(recv), cmath.exp(1j * angle))])


def test_single_move_strategies_with_a_phase_match_simulate(blocks):
    # a phased move opts out: every combination with one runs in a block with no token
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
    phased = [labels for labels, _, _ in result.table if any(l.startswith("phase:") for l in labels)]
    assert len(phased) == 5 * 5 - 2 * 2
    untokened = [block for block in blocks if block[2] is None]
    assert [combo for block in untokened for combo in _combos(block)] == phased
    assert {block[3] for block in untokened} == {1}
    # the two constants of the second slot share one block with each phased first pick
    assert len(untokened) == len(phased) - 3


def test_phased_prefixes_run_with_no_token_and_unphased_ones_take_their_triples(blocks):
    # the rejected constants form one class, and const:# and echo one class
    # each, so each first pick is one block; the unphased ones take the
    # rejected replies' triples, the phased ones run with no token
    p = corpus.build("no_comm_reduce")
    first = (
        constant_reply(BLANK),
        _phased("phase:#", lambda recv: BLANK, 2.3),
        echo_reply(),
        _phased("phase:echo", lambda recv: recv, -1.1),
    )
    tail = _rejected_unnamed_constants(p)[:4]
    families = (StrategyFamily(1, "phased", first), StrategyFamily(2, "rejected", tail))
    _assert_matches_simulate(p, "0", families)
    assert [(block[1], block[2] is None, block[3]) for block in blocks] == [
        (((s.label,), tuple(t.label for t in tail)), s.label.startswith("phase:"), s.label.startswith("phase:"))
        for s in first
    ]


@pytest.mark.parametrize("objective", ["max-accept", "min-reject"])
def test_blocks_with_and_without_tokens_are_met_in_product_order(objective, blocks):
    # phase:# is const:# up to a global phase, so the two tie, one in blocks
    # with no token and one with; echo and upper:# move alike and form one
    # class around the phased pick. Of the tied pair, the one first in product
    # order wins
    p = corpus.build("no_comm_reduce")
    probes = {s.label: s for s in default_families(p)[0].strategies}
    phased = _phased("phase:#", lambda recv: BLANK, 2.3)
    tail = (constant_reply(BLANK), constant_reply(track("g", BLANK)), echo_reply())
    for first, winner in (
        ((probes["echo"], phased, probes["upper:#"], constant_reply(BLANK)), "phase:#"),
        ((probes["echo"], constant_reply(BLANK), probes["upper:#"], phased), "const:#"),
    ):
        families = (StrategyFamily(1, "picks", first), StrategyFamily(2, "picks", tail))
        result = _assert_matches_simulate(p, "0", families, objective)
        assert result.best_labels == (winner, "const:#")
    untokened = [combo for block in blocks if block[2] is None for combo in _combos(block)]
    assert untokened == [("phase:#", t.label) for t in tail] * 2
    assert [_first(block)[0] for block in blocks] == ["echo"] * 3 + ["phase:#"] * 3 + ["const:#"] * 3 + [
        "echo"] * 3 + ["const:#"] * 3 + ["phase:#"] * 3


def test_three_prover_sweeps_score_each_class_tuple_once(blocks):
    # every prover's strategies are classed: 18,018 combinations of the lift
    # at cutoff 4 are 2 x 1 x 2 class tuples, one block each, and all of them
    # halt in round 2; the eraser slot's guard-rejected replies share one token
    p = dataclasses.replace(corpus.build("no_comm_lift"), cutoff=4)
    families = default_families(p)
    result = _assert_matches_simulate(p, "0", families)
    assert result.evaluated == 18018
    stage = _stage(p, "0")
    classes = [len({stage.key(slot, s) for s in f.strategies})
               for slot, f in enumerate(families)]
    assert classes == [2, 1, 2]
    assert [j for j, _ in _driven(blocks)] == [2] * (2 * 1 * 2)


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


# per protocol: builder, input, and labels every draw includes; on the reduced
# relay the pairs of these survive round 2, and the random draws almost never
# hold such a pair
_PROBED = {
    "no_comm_reduce": (lambda: corpus.build("no_comm_reduce"), "0", ()),
    "parity_relay_reduced": (_reduced_parity_relay, "1", ("const:#", f"const:{track('1', BLANK)}")),
}


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(_PROBED)),
    objective=st.sampled_from(("max-accept", "min-reject")),
    cutoff=st.sampled_from((2, 3)),
    data=st.data(),
)
def test_track_probe_sub_sweeps_match_simulate(name, objective, cutoff, data):
    build, x, survivors = _PROBED[name]
    p = dataclasses.replace(build(), cutoff=cutoff)
    families = []
    for f in default_families(p):
        picks = data.draw(st.lists(st.sampled_from(range(len(f.strategies))), min_size=1, max_size=16, unique=True))
        picks += [j for j, s in enumerate(f.strategies) if s.label in survivors and j not in picks]
        families.append(StrategyFamily(f.prover_index, f.label, tuple(f.strategies[j] for j in picks)))
    families = tuple(families)
    result = search(p, x, families=families, objective=objective, keep_table=True)
    combos = list(itertools.product(*(f.strategies for f in families)))
    assert len(result.table) == len(combos)
    leftover = {}
    for combo, (labels, acc, rej) in zip(combos, result.table):
        run = simulate(_trial(p, combo), x)
        leftover[labels] = run.leftover
        assert labels == tuple(s.label for s in combo)
        assert acc == pytest.approx(run.p_accept, abs=1e-12), labels
        assert rej == pytest.approx(run.p_reject, abs=1e-12), labels
    assert result.best_leftover == pytest.approx(leftover[result.best_labels], abs=1e-12)


@pytest.mark.parametrize("x, cutoff", [("1", 3), ("11", 3), ("111", 6)])
def test_rounds_resumed_from_the_sweeps_round_1_are_the_runs_own(blocks, x, cutoff):
    # the sweep's shared round 1 declares no records, and the rounds resumed
    # from it merge the logged tapes in their verifier passes: they are the
    # combination's own run by repr, stored counts included, for the first
    # combination of every block past round 2 and a seeded sample of the rest
    p = dataclasses.replace(_reduced_parity_relay(), cutoff=cutoff)
    families = default_families(p)
    search(p, x, families)
    deep = [_first(block) for block in blocks if block[0] > 2]
    assert deep
    strategies = [{s.label: s for s in f.strategies} for f in families]
    combos = [tuple(map(dict.__getitem__, strategies, labels)) for labels in deep]
    rng = random.Random(f"{x}/{cutoff}")
    combos += [tuple(rng.choice(f.strategies) for f in families) for _ in range(32)]
    first = next(engine._rounds(adversary._trial(p, (None,) * p.k, cutoff), x))
    merged = False
    for combo in combos:
        trial = adversary._trial(p, combo, cutoff)
        steps = list(engine._rounds(trial, x, first))
        resumed = [first[0]] + [stat for stat, _ in steps]
        assert repr(resumed) == repr(simulate(trial, x).rounds), [s.label for s in combo]
        merged = merged or any(c.multiplicity > 1 for _, classes in steps for c in classes)
    assert merged


# ---------------------------------------------------------------- logged replies
#
# Every plain LoggedReplyStrategy logs its reception in the step-indexed cell
# of its tape, so `_Stage` lets a slot's (cell, tape) stand for its new tape
# and asks such a strategy only for `fn(step, cell)`, or only once when `fn`
# is `FixedReplies`. Any other strategy, subclasses included, opts out: its
# key is its own, equal to no other.


def _picks(index, *symbols):
    return StrategyFamily(index, "picks", tuple(constant_reply(sym) for sym in symbols))


def _named_elsewhere():
    """qa receives u and qb receives v, and both fall to the guard and halt
    on a foreign reply; only qa has an explicit row, on z. So z is received
    at the slot, though not at v, where qb's group halts through the guard."""
    h = 2 ** -0.5
    ra, rb = specs.guard_state("rejf", "qa", LEFT_END), specs.guard_state("rejf", "qb", LEFT_END)
    return _guarded(
        first=(("qa", 0, ("u",), h), ("qb", 0, ("v",), h)),
        rows={("qa", LEFT_END, ("z",)): (("acc", 1, (BLANK,), 1.0),)},
        accept={"acc"},
        reject={ra, rb},
        minted={ra, rb},
    )


def _constants_and_relabel(p):
    """The constants y, z and w, and a relabeling that replies y to u and z to v."""
    relabel = LoggedReplyStrategy("relabel", lambda step, recv: [({"u": "y", "v": "z"}[recv], 1.0 + 0j)])
    return (StrategyFamily(1, "picks", _picks(1, "y", "z", "w").strategies + (relabel,)),)


# per case: builder, input, and the families whose keys are checked. The
# guard cases hold a rejected reply that an explicit row receives (z), so
# the token's row clause decides their keys: in `named_elsewhere` the row is
# at another reception than the relabeling's z, which keeps its own class
# all the same; the relay's sequence family holds 7-reply `FixedReplies`
_KEYED = {
    **{name: (build, x, default_families) for name, (build, x, _) in _PROBED.items()},
    "split_group": (_split_group, "0", lambda p: (_picks(1, "y", "z", "w"),)),
    "split_pair": (_split_pair, "0", lambda p: (_picks(1, "y", "z", "w"), _picks(2, BLANK, "y", "w"))),
    "named_elsewhere": (_named_elsewhere, "0", _constants_and_relabel),
    "parity_relay_11": (lambda: corpus.build("parity_relay"), "11", default_families),
}


def _round1(p, x):
    """The sweep's shared round-1 class: (residual, index, mass)."""
    return next(engine._rounds(adversary._trial(p, (None,) * p.k, p.cutoff), x))[1][0]


def _stage(p, x):
    """Round 2 of the sweep's root node, the shared round 1."""
    stat, classes = next(engine._rounds(adversary._trial(p, (None,) * p.k, p.cutoff), x))
    return adversary._Stage(p, x, None, p.cutoff, (1, classes, stat.p_accept, stat.p_reject, stat.residual_mass))


def _applied_moves(stage, slot, strategy):
    """`_Stage.key` before its shared tokens, rebuilt from `apply_quantum` on each local
    state (a reception and its blank tape), new tapes spelled out: (reply, new tape) per local state."""
    out = []
    for comm, tape in stage.local_states[slot]:
        try:
            column = strategy.apply_quantum(1, comm, tape)
        except Exception:
            return None
        if len(column) != 1 or column[0][1] != 1:
            return None
        out.append(column[0][0])
    return None if len(set(out)) < len(out) else out


def _halts_through_the_guard(p, x, slot):
    """Per reception at `slot` of the sweep's round 1, in residual order:
    whether the guard target of every source there halts."""
    tape = input_tape(x, p.verifier)
    guard, halting = p.verifier.fallback, p.verifier.accept | p.verifier.reject
    halts = {}
    for q, head, comm, _ in _round1(p, x)[0]:
        target = guard.target(q, tape[head % len(tape)]) if guard is not None else None
        halts[comm[slot]] = halts.get(comm[slot], True) and target in halting
    return halts


@pytest.mark.parametrize("name", sorted(_KEYED))
def test_logged_moves_equal_the_applied_moves(name, monkeypatch):
    build, x, make_families = _KEYED[name]
    p = build()
    stage = _stage(p, x)
    blank = (BLANK,) * max(1, p.cutoff)
    applied = []
    apply_quantum = LoggedReplyStrategy.apply_quantum

    def spy(self, step, comm, tape):
        applied.append(self.label)
        return apply_quantum(self, step, comm, tape)

    monkeypatch.setattr(LoggedReplyStrategy, "apply_quantum", spy)
    families = make_families(p)
    keys = [[stage.key(slot, s) for s in f.strategies] for slot, f in enumerate(families)]
    assert applied == []
    guard = p.verifier.fallback
    for slot, f in enumerate(families):
        halts = _halts_through_the_guard(p, x, slot)
        receptions = [comm for comm, _ in stage.local_states[slot]]
        assert receptions == list(halts)
        assert {tape for _, tape in stage.local_states[slot]} == {blank}
        received = {comm[slot] for _, _, comm in p.verifier.rows}
        assert sum(type(key) is tuple for key in keys[slot]) >= len(f.strategies) // 2
        for strategy, got in zip(f.strategies, keys[slot]):
            want = _applied_moves(stage, slot, strategy)
            got = got if type(got) is tuple else None
            assert (got is None) == (want is None), strategy.label
            assert len(got or ()) == len(want or ()), strategy.label
            # a None entry is the shared token: a reply the guard rejects, that
            # no explicit row receives at the slot, at a reception whose groups
            # all halt through the guard; any other entry is the reply
            for entry, (reply, new_tape), sent in zip(got or (), want or (), receptions):
                assert new_tape == specs.log_reception(blank, 1, sent), strategy.label
                token = guard is not None and guard.rejects(slot, reply) and reply not in received and halts[sent]
                assert entry == (None if token else reply), strategy.label


class _Sub(LoggedReplyStrategy):
    """A plain logged strategy under another type, so `_Stage.key` gives it a key of its own."""


@pytest.mark.parametrize("name", sorted(_KEYED))
def test_a_logged_subclass_has_a_key_of_its_own_and_runs_apart(name, blocks):
    build, x, make_families = _KEYED[name]
    p = build()
    stage = _stage(p, x)
    families = make_families(p)
    for slot, f in enumerate(families):
        keys = [stage.key(slot, s) for s in f.strategies]
        assert sum(type(key) is tuple for key in keys) >= len(keys) // 2
        subs = [stage.key(slot, _Sub(strategy.label, strategy.fn)) for strategy in f.strategies]
        assert not any(type(key) is tuple or key in keys + subs[:i] for i, key in enumerate(subs)), f.label
    # up to 4 strategies per family, spread over it, as `_Sub` copies: every
    # combination is a block of its own, and the table is the plain strategies' to 1e-12
    picked = [f.strategies[::-(-len(f.strategies) // 4)] for f in families]
    plain = tuple(StrategyFamily(f.prover_index, f.label, strategies) for f, strategies in zip(families, picked))
    subs = tuple(
        StrategyFamily(f.prover_index, f.label, tuple(_Sub(s.label, s.fn) for s in strategies))
        for f, strategies in zip(families, picked)
    )
    scored = search(p, x, families=plain, keep_table=True)
    blocks.clear()
    result = _assert_matches_simulate(p, x, subs)
    assert [_combos(block) for block in blocks if block[0] == 2] == [[labels] for labels, _, _ in result.table]
    assert all(block[2] is None for block in blocks)
    for (labels, acc, rej), (_, want_acc, want_rej) in zip(result.table, scored.table):
        assert (acc, rej) == pytest.approx((want_acc, want_rej), abs=1e-12), labels


def test_keys_at_the_c5_root_follow_the_token_rule():
    # every group of the full C5 sweep's root halts through the guard, so a
    # rejected reply that no row receives is the token at every local id; a
    # branching rotation and a subclass opt out, equal to no other key
    p = corpus.build("no_comm_reduce")
    stage = _stage(p, "0")
    guard = p.verifier.fallback
    for slot, f in enumerate(default_families(p)):
        halts = _halts_through_the_guard(p, "0", slot)
        received = {comm[slot] for _, _, comm in p.verifier.rows}
        opt_outs = (rotation_reply(*p.verifier.comm_alphabets[slot][:2]), _Sub("echo", echo_reply().fn))
        keys = [stage.key(slot, s) for s in f.strategies + opt_outs]
        for strategy, key in zip(f.strategies, keys):
            want = []
            for cell, _ in stage.local_states[slot]:
                (reply, _), = strategy.fn(1, cell)
                token = halts[cell] and reply not in received and guard.rejects(slot, reply)
                want.append(None if token else reply)
            assert key == tuple(want), strategy.label
        assert (None,) * len(stage.local_states[slot]) in keys
        for key in keys[len(f.strategies):]:
            assert type(key) is not tuple and [other == key for other in keys].count(True) == 1


def test_blocks_that_hold_the_token_at_every_local_id_share_one_child():
    # slot 0's all-token pick halts every group through the guard, whatever
    # slot 1 picks: two such blocks of one node get the one child that a
    # fresh node computes by its pass over the groups
    p = corpus.build("no_comm_reduce")
    families = default_families(p)
    stage = _stage(p, "0")
    keys = [[stage.key(slot, s) for s in f.strategies] for slot, f in enumerate(families)]
    token = keys[0].index((None,) * len(stage.local_states[0]))
    a, b = 0, next(j for j, key in enumerate(keys[1]) if key != keys[1][0])
    first = stage.run(((token,), (a,)), (keys[0][token], keys[1][a]))
    second = stage.run(((token,), (b,)), (keys[0][token], keys[1][b]))
    assert second is first
    assert second == _stage(p, "0").run(((token,), (b,)), (keys[0][token], keys[1][b]))
    assert (second[0], second[1], second[4]) == (2, [], 0.0)


@pytest.mark.parametrize("objective", ["max-accept", "min-reject"])
def test_a_sweep_over_shuffled_families_matches_simulate(objective, blocks):
    # shuffled, a block's strategies sit apart in their family's order, so
    # the table reads each leaf's combinations from non-contiguous indices
    p = corpus.build("no_comm_reduce")
    rng = random.Random(50)
    families = tuple(
        StrategyFamily(f.prover_index, f.label, tuple(rng.sample(f.strategies, len(f.strategies))))
        for f in _track_probe_sample(p, 50)
    )
    _assert_matches_simulate(p, "0", families, objective)
    positions = [{s.label: i for i, s in enumerate(f.strategies)} for f in families]
    spread = [[positions[slot][label] for label in labels] for _, block, _, _ in blocks
              for slot, labels in enumerate(block)]
    assert any(indices != list(range(indices[0], indices[0] + len(indices))) for indices in spread)


# ---------------------------------------------------------------- the blank tapes of round 1
#
# `_Stage` lets a slot's (cell, tape) stand for a logged reply's new tape.
# That rests on the sweep's round 1 leaving every prover tape blank with a
# cell to log in, and on two groups' logged tapes never meeting, even where an
# explicit row aims at a guard-minted state.


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_the_sweeps_round_1_holds_only_blank_tapes_of_at_least_one_cell(cutoff, monkeypatch):
    cases = [(corpus.build(name), x) for name in sorted(corpus.REGISTRY) for x in corpus.test_inputs(name)]
    cases += [(_reduced_parity_relay(), x) for x in ("1", "11")]
    firsts = []
    rounds = adversary._rounds

    def spy(p, x, after=None):
        steps = rounds(p, x, after)
        if after is None:
            firsts.append(next(steps))
            yield firsts[-1]
        yield from steps

    monkeypatch.setattr(adversary, "_rounds", spy)
    tapes = []
    for p, x in cases:
        families = tuple(StrategyFamily(i + 1, "picks", (echo_reply(),)) for i in range(p.k))
        search(p, x, families=families, cutoff=cutoff)
        _, classes = firsts.pop()
        assert not firsts, (p.name, x)
        for state, _ in classes:
            for config in state:
                assert len(config.tapes) == p.k, (p.name, x)
                tapes.extend(config.tapes)
    assert tapes
    for tape in tapes:
        assert len(tape) >= 1 and set(tape) == {BLANK}, tape


_REPLIES = ("p", "z", "y")


@st.composite
def _guarded_sweeps(draw):
    """A `_guarded` protocol on one or two provers, whose explicit rows may aim
    at guard-minted states, and per prover the logged family: the constants p,
    z and y and a relabeling of the receptions u and v.

    Each source has its own accept state, and a row into a minted state aims
    at another group's when there is one, so most protocols keep their mass;
    the rest fault, and the sweep must raise as the run does."""
    k = draw(st.integers(1, 2))
    sources = draw(st.lists(st.sampled_from(("qa", "qb", "qc", "qd")), min_size=1, max_size=4, unique=True))
    amp = len(sources) ** -0.5
    receptions = {q: draw(st.tuples(*[st.sampled_from(("u", "v"))] * k)) for q in sources}
    first = tuple((q, 0, receptions[q], draw(st.sampled_from((amp, -amp)))) for q in sources)
    # the guard mostly knows a source's reject state, and that state mostly halts
    guard = {q: specs.guard_state("rejf", q, LEFT_END) for q in sources}
    minted = {name for name in guard.values() if draw(st.integers(0, 4))} or {guard[sources[0]]}
    reject = {name for name in minted if draw(st.integers(0, 3))}
    replies = list(itertools.product(_REPLIES, repeat=k))
    blank = (BLANK,) * k
    h = 2 ** -0.5
    rows = {}
    for q in sources:
        apart = sorted(guard[o] for o in sources if receptions[o] != receptions[q] and guard[o] in minted)
        # the guard passes p alone, so every source has a row for it
        for comm in [("p",) * k] + draw(st.lists(st.sampled_from(replies[1:]), max_size=3, unique=True)):
            into = (draw(st.sampled_from(apart or sorted(minted))), 1, draw(st.sampled_from(replies)))
            accept = (f"acc_{q}", 0, blank)
            rows[q, LEFT_END, comm] = draw(st.sampled_from((
                (into + (1.0,),),
                (accept + (1.0,),),
                (into + (h,), accept + (draw(st.sampled_from((h, -h))),)),
            )))
    relabel = dict(zip(("u", "v"), draw(st.tuples(st.sampled_from(_REPLIES), st.sampled_from(_REPLIES)))))
    return _guarded_sweep(first, rows, reject, minted, relabel, k)


def _guarded_sweep(first, rows, reject, minted, relabel, k):
    """The `_guarded` protocol that sends `first` from q0, each source with its
    own accept state, and per prover the logged family: the constants p, z
    and y and `relabel` of the receptions u and v."""
    p = _guarded(first, rows, {f"acc_{q}" for q, *_ in first}, reject, minted, k)
    fn = LoggedReplyStrategy("fn", lambda step, recv: [(relabel[recv], 1.0 + 0j)])
    family = tuple(constant_reply(sym) for sym in _REPLIES) + (fn,)
    return p, tuple(StrategyFamily(i + 1, "logged", family) for i in range(k))


def _partial_shortcut_sweep():
    """qa and qc receive u and v; on p, qc's row goes to qa's guard state and
    qa's half to qc's, which alone rejects. A reply that the guard takes from
    one group and not the other halts that group while the other group runs."""
    h = 2 ** -0.5
    ra, rc = specs.guard_state("rejf", "qa", LEFT_END), specs.guard_state("rejf", "qc", LEFT_END)
    rows = {
        ("qc", LEFT_END, ("p",)): ((ra, 1, ("y",), 1.0),),
        ("qa", LEFT_END, ("p",)): ((rc, 1, ("p",), h), ("acc_qa", 0, (BLANK,), -h)),
    }
    return _guarded_sweep((("qc", 0, ("v",), -h), ("qa", 0, ("u",), h)), rows, {rc}, {ra, rc}, {"u": "p", "v": "y"}, 1)


def test_guarded_sweeps_with_rows_into_minted_states_match_simulate(monkeypatch):
    # each block's driver round runs the sources of every group that does not
    # take the halted shortcut; across the examples, some block takes it for
    # some groups and runs the others, as the explicit example always does
    shortcuts = []
    run = adversary._Stage.run

    def running(self, tag, picks):
        held = [picks is not None and any(picks[s][i] is None for s, i in enumerate(local))
                for _, local, _, _ in self.groups]
        shortcuts.append(any(held) and not all(held))
        return run(self, tag, picks)

    monkeypatch.setattr(adversary._Stage, "run", running)

    @settings(max_examples=60, deadline=None)
    @given(case=_guarded_sweeps())
    @example(case=_partial_shortcut_sweep())
    def sweep_matches(case):
        p, families = case
        runs = []
        for combo in itertools.product(*(f.strategies for f in families)):
            try:
                runs.append(simulate(_trial(p, combo), "0"))
            except RunFault as fault:
                runs.append(fault)
        faults = [run for run in runs if isinstance(run, RunFault)]
        try:
            result = search(p, "0", families=families, keep_table=True)
        except RunFault as fault:
            # the first combination that faults, in product order, raises its own error
            assert faults and (type(fault), str(fault)) == (type(faults[0]), str(faults[0]))
            return
        assert not faults
        for run, (labels, acc, rej) in zip(runs, result.table):
            assert (acc, rej) == pytest.approx((run.p_accept, run.p_reject), abs=1e-12), labels

    sweep_matches()
    assert any(shortcuts)


class _Hedged(LoggedReplyStrategy):
    """Its `fn` reply and # in equal superposition, a move `fn` alone does not show."""

    def apply_quantum(self, step, comm, tape):
        ((reply, logged), amp), = super().apply_quantum(step, comm, tape)
        h = 2 ** -0.5
        return [((reply, logged), amp * h), ((BLANK, logged), -amp * h)]


@pytest.mark.parametrize("objective", ["max-accept", "min-reject"])
def test_a_logged_subclass_that_overrides_its_move_opts_out(objective, blocks):
    p = corpus.build("no_comm_reduce")
    g = track("g", BLANK)
    hedged = _Hedged("hedged:g", lambda step, recv: [(g, 1.0 + 0j)])
    families = (
        StrategyFamily(1, "picks", (constant_reply(g), hedged)),
        StrategyFamily(2, "picks", (constant_reply(BLANK), constant_reply(g), echo_reply())),
    )
    result = _assert_matches_simulate(p, "0", families, objective)
    untokened = [combo for block in blocks if block[2] is None for combo in _combos(block)]
    assert untokened == [("hedged:g", "const:#"), ("hedged:g", f"const:{g}"), ("hedged:g", "echo")]
    plain, branched = result.table[:3], result.table[3:]
    assert [(acc, rej) for _, acc, rej in plain] != [(acc, rej) for _, acc, rej in branched]


def test_a_logged_strategy_that_branches_opts_out_even_with_weight_1_moves(blocks):
    # two moves of weight 1 each double the mass: only the driver sees both
    p = corpus.build("no_comm_reduce")
    g = track("g", BLANK)
    doubled = LoggedReplyStrategy("doubled", lambda step, recv: [(g, 1.0 + 0j), (BLANK, 1.0 + 0j)])
    families = (
        StrategyFamily(1, "picks", (constant_reply(g), doubled)),
        StrategyFamily(2, "picks", (echo_reply(),)),
    )
    with pytest.raises(RunFault, match="round 2 is not mass-preserving"):
        search(p, "0", families=families)
    assert [(_first(block), block[2] is None, block[3]) for block in blocks] == [
        ((f"const:{g}", "echo"), False, 1), (("doubled", "echo"), True, 1),
    ]


def test_a_logged_strategy_that_fails_on_one_reception_opts_out_and_raises(blocks):
    p = corpus.build("no_comm_reduce")
    comms = [comm for comm, _ in _stage(p, "0").local_states[0]]
    assert len(comms) > 1

    def picky(step, recv):
        if recv == comms[-1]:
            raise MissingTransition(f"picky: no reply to {recv!r}")
        return [(BLANK, 1.0 + 0j)]

    families = (
        StrategyFamily(1, "picks", (constant_reply(BLANK), LoggedReplyStrategy("picky", picky))),
        StrategyFamily(2, "picks", (echo_reply(),)),
    )
    with pytest.raises(MissingTransition, match=re.escape(f"picky: no reply to {comms[-1]!r}")):
        search(p, "0", families=families)
    assert [(_first(block), block[2] is None, block[3]) for block in blocks] == [
        (("const:#", "echo"), False, 1), (("picky", "echo"), True, 1),
    ]


def test_a_logged_reply_of_none_opts_out_and_raises_the_runs_error(blocks):
    # None is the shared token in a class key, so a strategy that replies
    # None opts out; its driver round finds no row for the reply, as its run does
    p = corpus.build("parity_relay")
    families = (
        StrategyFamily(1, "picks", (LoggedReplyStrategy("none", lambda step, recv: [(None, 1.0 + 0j)]),)),
        StrategyFamily(2, "picks", (echo_reply(),)),
    )
    with pytest.raises(MissingTransition, match=re.escape("received (None, '#')")):
        search(p, "11", families=families)
    assert [(block[1], block[2] is None, block[3]) for block in blocks] == [((("none",), ("echo",)), True, 1)]


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
    result = simulate(fixed, "1")
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
            dataclasses.replace(corpus.build("no_comm"), cutoff=0), "0", (constant_reply(BLANK), constant_reply(BLANK))
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
        simulate(p, "0")
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


def test_the_honest_relay_derandomizes_where_it_writes_only_its_log():
    # on "" the relay's table writes only blanks, which is the logged tape
    p = corpus.build("parity_relay")
    det, report = derandomize_provers(p, "", [prover.strategy for prover in p.provers])
    assert report.decisions == 2
    assert report.derandomized_p_reject == report.quantum_p_reject == 0.0
    assert simulate(adversary._trial(p, det, p.cutoff), "").p_reject == 0.0


@pytest.mark.parametrize("x", ["1", "11"])
def test_derandomize_refuses_moves_that_write_past_the_log(x):
    # the relay keeps its parity in work cell 0, so at the first ping (step 2) it
    # writes a tape that is not the log, which the derandomized table would replay
    p = corpus.build("parity_relay")
    with pytest.raises(Unbounded, match="at step 2, not its logged tape"):
        derandomize_provers(p, x, [prover.strategy for prover in p.provers])


def test_derandomize_decision_cap():
    p = corpus.build("parity_relay")
    strategies = (rotation_reply(BLANK, "1"), constant_reply(BLANK))
    with pytest.raises(Unbounded):
        derandomize_provers(p, "1", strategies, limit=2)


def test_a_reply_whose_amplitudes_cancel_is_no_candidate():
    class Cancelling:
        label = "cancelling"

        def apply_quantum(self, step, comm, tape):
            logged = specs.log_reception(tape, step, comm)
            return [(("g", logged), 0.5 + 0j), (("g", logged), -0.5 + 0j), ((BLANK, logged), 1.0 + 0j)]

    p = corpus.build("no_comm")
    det, report = derandomize_provers(p, "0", (Cancelling(), constant_reply(BLANK)))
    assert all(set(s.choices.values()) == {BLANK} for s in det)
    assert report.dominated
    result = simulate(adversary._trial(p, det, p.cutoff), "0")
    assert (result.p_accept, result.p_reject) == (report.derandomized_p_accept, report.derandomized_p_reject)


def test_derandomization_measures_each_prover_view_once():
    class Counted:
        def __init__(self, base):
            self.base = base
            self.views = []

        def apply_quantum(self, step, comm, tape):
            self.views.append((step, comm, tape))
            return self.base.apply_quantum(step, comm, tape)

    strategies = (Counted(rotation_reply(BLANK, "1")), Counted(constant_reply(BLANK)))
    _, report = derandomize_provers(corpus.build("parity_relay"), "1", strategies)
    assert report.decisions == 4
    assert [len(s.views) for s in strategies] == [len(set(s.views)) for s in strategies]
    assert sum(len(s.views) for s in strategies) == 4


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
        _, acc, rej, _, _, classes = _verify_and_measure(state, p.verifier, tape, {})
        state = classes[0].state if classes else {}
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


@pytest.mark.parametrize("name, x", [("no_comm", "0"), ("no_comm", "00"), ("parity_relay", ""), ("parity_relay", "1")])
def test_one_derandomization_builds_each_column_once(name, x, column_builds):
    # the quantum run, the walk, every candidate's resumed rounds and the
    # deterministic run are all of one verifier on one input: one column cache.
    # The lru-cached protocol's verifier may be warm; its copy starts cold
    p = corpus.build(name)
    first, second = p.verifier.comm_alphabets
    strategies = (rotation_reply(first[0], first[1]), constant_reply(second[0]))
    derandomize_provers(p, x, strategies)
    p = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier))
    built, lookups = column_builds
    built.clear()
    lookups.clear()
    _, report = derandomize_provers(p, x, strategies)
    assert report.decisions > 0
    assert len(lookups) == len(built) == len(set(built)) > 0
