"""Round-by-round execution of a protocol on one input string.

A configuration is (verifier state, head position, communication cells,
prover tapes). The input lives on a circular tape `¢ x $`; the head index is
taken modulo its length, so a two-way machine that moves past one endmarker
comes round to the other. A one-way verifier never wraps: every branch it
takes on `$` halts (`validate_protocol`).

Each round has three stages: provers transform their cell and private tape
(from round 2 on), the verifier consumes its cells and moves its head, and a
projective measurement splits off the accepting and rejecting mass. The
provers move together, as one operator built once per round and pruned
once; the verifier stage and the measurement run as one pass grouped by
prover tapes (`_verify_and_measure`). The residual stays unnormalized;
mass still unresolved at the cutoff is reported as leftover.

A strategy's `record` (see `specs`) is what its moves store but never read:
a track wrap's reception lower track, the reduction's one-time-pad mask, or a
logged reply's tape. A history, the part of the state with one content of the
records, never meets another again, and histories that agree outside their
records evolve alike. So the driver keeps them once, as a class whose
multiplicity weighs its masses (16 histories per round of the reduced
`parity_relay`), and the verifier pass that makes them merges them: a lone
configuration in closed form on its column (`_Column.grouped`), any other
residual by `_merge_records`. `RoundStat.configurations` sums multiplicity
times residual size, the pure state's count; `RoundStat.stored` sums the pass's
residual sizes, before the merge. A run without records is one class.

`_rounds` is the one round driver: a generator that yields each round as it is
run, which `simulate` consumes whole and derandomization (`adversary`) steps
through one round at a time. Its run is the protocol's: the verifier's mode
sets how rounds are measured and the cutoff where they stop. It resumes from
any pair it yielded (`after`): a sweep runs each block of combinations from
its node's round, and derandomization scores each candidate reply from the
walk's current round.
A verifier column depends on its state, scanned symbol and reception alone;
its targets hold head moves. So every pass reads the verifier's own cache
(`_columns`), kept across runs and shared by inputs: the runs, sweeps and
derandomizations of one verifier build each of its columns once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from math import prod
from typing import Callable, Iterator, NamedTuple

from .amplitudes import StateVector, apply_sparse_operator, norm_sq
from .errors import InvalidInput, RunFault, ValidationError
from .specs import (
    BLANK,
    LEFT_END,
    RIGHT_END,
    ProtocolSpec,
    ProverSpec,
    VerifierSpec,
    parse_track,
    sum_targets,
)
from .tolerances import CONSERVATION_TOL, PRUNE_TOL, ROUND_TOL


class Configuration(NamedTuple):
    state: str
    head: int
    comm: tuple[str, ...]
    tapes: tuple[tuple[str, ...], ...]


@dataclass
class RoundStat:
    """One round's masses and sizes: `configurations` counts the pure state's
    configurations after the round, `stored` the verifier pass's residual sizes, before the merge."""
    index: int
    p_accept: float
    p_reject: float
    residual_mass: float
    configurations: int
    stored: int


@dataclass
class RunResult:
    protocol: str
    input: str
    mode: str
    rounds: list[RoundStat]
    p_accept: float
    p_reject: float
    leftover: float
    steps_counted: int
    halted_round: int | None

    @property
    def outcome(self) -> str:
        if self.p_accept > self.p_reject:
            return "accept"
        if self.p_reject > self.p_accept:
            return "reject"
        return "tie"


def input_tape(x: str, verifier: VerifierSpec) -> tuple[str, ...]:
    """The circular tape for input x: endmarkers around the input symbols."""
    allowed = set(verifier.input_alphabet)
    for ch in x:
        if ch not in allowed:
            raise InvalidInput(f"input symbol {ch!r} is not in the protocol's alphabet")
    return (LEFT_END,) + tuple(x) + (RIGHT_END,)


def initial_state(p: ProtocolSpec, x: str) -> StateVector:
    input_tape(x, p.verifier)
    comm = (BLANK,) * p.k
    tapes = tuple((BLANK,) * prover.space for prover in p.provers)
    return {Configuration(p.verifier.initial, 0, comm, tapes): 1.0 + 0j}


def prover_operator(provers: tuple[ProverSpec, ...], step: int, quantum: bool) -> Callable:
    """The moves of `provers` at `step` as one sparse operator.

    Provers write disjoint slots, so the product of their moves per source
    equals applying them one after another; other slots keep their cell and
    tape. The composition is pruned once, after the last prover. A slot moves
    by `apply_quantum` when `quantum` is set or its strategy is `measured`.
    While every slot has one move, as every deterministic strategy and every
    classical run does, the op builds its one target directly, its weight the
    slots' weights multiplied in slot order; from the first slot with another
    number of moves on, it takes the product of the slots' moves.
    """
    by_slot = {pr.index - 1: (pr.strategy, quantum or getattr(pr.strategy, "measured", False))
               for pr in provers}
    absent = (None, False)
    make = Configuration._make

    def op(config: Configuration):
        q, head, comm, tapes = config
        cells = []
        new_tapes = []
        weight = 1.0
        for slot, (cell, tape) in enumerate(zip(comm, tapes)):
            strategy, moves_quantum = by_slot.get(slot, absent)
            if moves_quantum:
                moves = strategy.apply_quantum(step, cell, tape)
                if len(moves) != 1:
                    return branched(config, slot, moves)
                (cell, tape), w = moves[0]
                weight *= w
            elif strategy is not None:
                cell, tape = strategy.apply_classical(step, cell, tape)
            cells.append(cell)
            new_tapes.append(tape)
        return [(make((q, head, tuple(cells), tuple(new_tapes))), weight)]

    def branched(config, slot, moves):
        """The op at `config` once `slot` has `moves`, not one: the product of every slot's moves."""
        q, head, comm, tapes = config
        per_slot = []
        for i, (cell, tape) in enumerate(zip(comm, tapes)):
            strategy, moves_quantum = by_slot.get(i, absent)
            if i == slot:
                per_slot.append(moves)
            elif strategy is None:
                per_slot.append((((cell, tape), 1.0),))
            elif moves_quantum:
                per_slot.append(strategy.apply_quantum(step, cell, tape))
            else:
                per_slot.append(((strategy.apply_classical(step, cell, tape), 1.0),))
        out = []
        for combo in product(*per_slot):
            moves, weights = zip(*combo)
            cells, new_tapes = zip(*moves)
            out.append((make((q, head, cells, new_tapes)), prod(weights)))
        return out

    return op


def _check_head_moves(config: Configuration, branches, n: int) -> None:
    """RunFault if `config`'s head moves +1 and -1 reach one target, as on the two-cell tape of "".

    That breaks interference, so only quantum verifiers must not do it."""
    moves: dict = {}
    for q2, d, sent, _ in branches:
        target = (q2, (config.head + d) % n, sent)
        if moves.setdefault(target, d) != d:
            raise RunFault(
                f"branches of {config} with head moves {moves[target]:+d} and {d:+d} "
                f"both land on {Configuration(*target, config.tapes)} of the two-cell tape"
            )


def verifier_operator(verifier: VerifierSpec, tape: tuple[str, ...]) -> Callable:
    n = len(tape)
    check_moves = n == 2 and verifier.is_quantum()

    def op(config: Configuration):
        q, head, comm, tapes = config
        branches = verifier.lookup(q, tape[head % n], comm)
        if check_moves:
            _check_head_moves(config, branches, n)
        return [(Configuration(q2, (head + d) % n, sent, tapes), complex(w)) for q2, d, sent, w in branches]

    return op


def _mass(state: StateVector, quantum: bool) -> float:
    if quantum:
        return norm_sq(state)
    return sum((w.real for w in state.values()), 0.0)


class _Column(NamedTuple):
    """One verifier column without tapes and what the closed form needs; its totals
    and live targets are the column's `_measure`."""
    targets: list  # [((state, head move, comm), w)], duplicate targets summed
    smallest: float  # smallest |w|
    total: float
    accept: float
    reject: float
    live: dict  # the non-halting targets
    merges: dict  # per record slots (lowered, logged): `live` as history classes (`grouped`)

    def grouped(self, records: tuple[tuple[int, ...], tuple[int, ...]]) -> list:
        """`live` as history classes by `records`, memoized: [(a representative's [(target, w)], its count)], by
        `_merge_records` on the live targets weighted by w on placeholder tapes (a configuration's are alike)."""
        grouped = self.merges.get(records)
        if grouped is None:
            probe = {(q, d, sent, (None,) * len(sent)): w for (q, d, sent), w in self.live.items()}
            grouped = self.merges[records] = [([(config[:3], w) for config, w in c.state.items()], c.multiplicity)
                                              for c in _merge_records(_Class(probe, 1), *records)]
        return grouped


def _measure(targets, quantum: bool, accept, reject) -> tuple[float, float, float, dict]:
    """The projective measurement of summed targets [(key, amp)], keyed by state first.

    Drops amplitudes below PRUNE_TOL and sends each surviving weight (|amp|^2,
    or amp.real when classical) to accept or reject by the key's state, or
    keeps the target live. Returns (kept mass, accept mass, reject mass, live).
    """
    kept = p_acc = p_rej = 0.0
    live = {}
    for key, a in targets:
        if abs(a) < PRUNE_TOL:
            continue
        weight = a.real * a.real + a.imag * a.imag if quantum else a.real
        kept += weight
        if key[0] in accept:
            p_acc += weight
        elif key[0] in reject:
            p_rej += weight
        else:
            live[key] = a
    return kept, p_acc, p_rej, live


def _column(verifier: VerifierSpec, tape: tuple[str, ...], config: Configuration, quantum: bool) -> _Column:
    """The verifier's column at `config` from its lookup rows, its targets by head move (modulo 2 on the tape of "")."""
    q, head, comm, _ = config
    n = len(tape)
    branches = verifier.lookup(q, tape[head], comm)
    if n == 2 and quantum:
        _check_head_moves(config, branches, n)
    summed = sum_targets(((q2, d % 2 if n == 2 else d, sent), complex(w)) for q2, d, sent, w in branches)
    targets = list(summed.items())
    smallest = min((abs(w) for _, w in targets), default=0.0)
    return _Column(targets, smallest, *_measure(targets, quantum, verifier.accept, verifier.reject), {})


def _columns(verifier: VerifierSpec, tape: tuple[str, ...]) -> dict:
    """`verifier`'s own {(state, scanned symbol, reception): _Column}, another for the tape of ""; no fault is kept."""
    return verifier.column_cache.setdefault(len(tape) == 2, {})


def _verify_and_measure(
    state: StateVector, verifier: VerifierSpec, tape: tuple[str, ...], columns: dict,
    records: tuple[tuple[int, ...], tuple[int, ...]] | None = None, multiplicity: int = 1,
) -> tuple[float, float, float, float, int, list[_Class]]:
    """Verifier stage and measurement of a class in one pass, its residual left merged by `records`.

    Returns (mass after the stage, accept mass, reject mass, residual mass,
    residual size, the residual's classes). The verifier never writes a
    prover tape, so only configurations with equal tapes interfere. A
    configuration alone on its tapes cannot interfere: when every target of
    its column survives the prune (|amp| times the column's smallest |w| is at
    least PRUNE_TOL), its masses are |amp|^2 (amp.real when classical) times
    the column's totals and only its non-halting targets are stored; if it is
    the class's one configuration and the run declares records, it leaves its
    column's classes (`_Column.grouped`) and builds no residual. Every other
    configuration is summed per tape group, which `_measure` prunes and
    measures; only its live targets become configurations, one class of
    `multiplicity` merged by `records` (`_merge_records`), or none if empty.
    `columns` caches the columns per (state, scanned symbol, comm) (`_columns`);
    a stored target's head is the head plus its move, modulo the tape's length.
    """
    quantum = verifier.is_quantum()
    n = len(tape)
    sharing: dict = {}  # per tapes: whether another configuration has them too
    for config in state:
        sharing[config.tapes] = config.tapes in sharing
    shared: dict = {}
    after = p_acc = p_rej = 0.0
    residual: StateVector = {}
    for config, amp in state.items():
        q, head, comm, tapes = config
        key = q, tape[head], comm
        column = columns.get(key)
        if column is None:
            column = columns[key] = _column(verifier, tape, config, quantum)
        if sharing[tapes] or abs(amp) * column.smallest < PRUNE_TOL:
            shared.setdefault(tapes, []).append((column, head, amp))
            continue
        scale = amp.real * amp.real + amp.imag * amp.imag if quantum else amp.real
        after += scale * column.total
        p_acc += scale * column.accept
        p_rej += scale * column.reject
        if records and len(state) == 1:
            # the residual's mass as `_mass` sums it, in live order, without building it
            live = [amp * w for w in column.live.values()]
            left = sum([(a * a.conjugate()).real for a in live] if quantum else [a.real for a in live], 0.0)
            return after, p_acc, p_rej, left, len(live), [
                _Class({Configuration._make((q2, (head + d) % n, sent, tapes)): amp * w
                        for (q2, d, sent), w in targets}, multiplicity * count)
                for targets, count in column.grouped(records)]
        for (q2, d, sent), w in column.live.items():
            residual[Configuration._make((q2, (head + d) % n, sent, tapes))] = amp * w
    for tapes, members in shared.items():
        local: dict = {}
        for column, head, amp in members:
            for (q2, d, sent), w in column.targets:
                target = q2, (head + d) % n, sent
                local[target] = local.get(target, 0j) + amp * w
        kept, acc, rej, live = _measure(local.items(), quantum, verifier.accept, verifier.reject)
        after += kept
        p_acc += acc
        p_rej += rej
        for (q2, head, sent), a in live.items():
            residual[Configuration._make((q2, head, sent, tapes))] = a
    classes = [_Class(residual, multiplicity)] if residual else []
    if records and residual:
        classes = _merge_records(classes[0], *records)
    return after, p_acc, p_rej, _mass(residual, quantum), len(residual), classes


def _check_round(
    round_index: int,
    before: float,
    after: float,
    p_acc: float,
    p_rej: float,
    residual_mass: float,
) -> None:
    """Raise RunFault unless the round kept its mass and the measurement lost none.

    Each test is written as `not ... <= tol`, so a NaN mass fails it.
    """
    if not abs(after - before) <= ROUND_TOL:
        raise RunFault(
            f"round {round_index} is not mass-preserving: {before:.12g} -> {after:.12g}; "
            "run the well-formedness check"
        )
    if not abs((p_acc + p_rej + residual_mass) - after) <= CONSERVATION_TOL:
        raise RunFault(f"measurement at round {round_index} lost probability mass")


def run_round(
    p: ProtocolSpec, tape: tuple[str, ...], state: StateVector, round_index: int
) -> tuple[float, float, StateVector]:
    """One full round of one state, unmerged; returns (accept mass, reject mass, residual).

    The verifier's mode says whether masses are squared amplitudes or plain
    weights; the provers move from round 2 on. The round driver runs the same
    two stages per class and merges in the pass.
    """
    before = _mass(state, p.verifier.is_quantum())
    if round_index >= 2 and p.provers:
        state = apply_sparse_operator(prover_operator(p.provers, round_index - 1, p.verifier.is_quantum()), state)
    after, p_acc, p_rej, left, _, classes = _verify_and_measure(state, p.verifier, tape, _columns(p.verifier, tape))
    _check_round(round_index, before, after, p_acc, p_rej, left)
    return p_acc, p_rej, classes[0].state if classes else {}


class _Class(NamedTuple):
    """Histories kept once: a representative state and its multiplicity."""
    state: StateVector
    multiplicity: int


@lru_cache(maxsize=4096)
def _split_receptions(comm: tuple[str, ...], slots: tuple[int, ...]) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """`comm` with the upper tracks of `slots` in their cells, and those lower tracks; None if one is no track."""
    halves = {slot: parse_track(comm[slot]) for slot in slots}
    if None in halves.values():
        return None
    cells = tuple(halves[slot][0] if slot in halves else cell for slot, cell in enumerate(comm))
    return cells, tuple(lower for _, lower in halves.values())


def _merge_records(cls: _Class, lowered: tuple[int, ...], logged: tuple[int, ...]) -> list[_Class]:
    """`cls` merged by the next move's records: `lowered` slots' reception lower tracks, `logged` slots' tapes.

    No move reads a record and the verifier reads no tape, so histories whose
    configurations agree, amplitude for amplitude, outside their records merge
    into one class whose multiplicity is the sum of theirs, the first as its
    representative. A class of one history is returned as it is. A reception
    `parse_track` cannot split stays alone, for the move to raise.
    """
    histories: dict = {}
    for config, amp in cls.state.items():
        q, head, comm, tapes = config
        split = _split_receptions(comm, lowered)
        if split is None:
            history, outside = config, object()
        else:
            cells, history = split
            if logged:
                history = history, tuple([tapes[slot] for slot in logged])
                tapes = tuple([None if slot in logged else tape for slot, tape in enumerate(tapes)])
            outside = q, head, cells, tapes
        histories.setdefault(history, []).append((config, outside, amp))
    if len(histories) == 1:
        return [cls]
    merged: dict = {}
    for members in histories.values():
        # a history of one configuration is keyed by its one pair, never equal to a frozenset
        key = members[0][1:] if len(members) == 1 else frozenset([(outside, amp) for _, outside, amp in members])
        entry = merged.get(key)
        if entry is None:
            merged[key] = [{config: amp for config, _, amp in members}, cls.multiplicity]
        else:
            entry[1] += cls.multiplicity
    return [_Class(*entry) for entry in merged.values()]


def _rounds(
    p: ProtocolSpec, x: str, after: tuple[RoundStat, list[_Class]] | None = None
) -> Iterator[tuple[RoundStat, list[_Class]]]:
    """The run of p on x, one round per step: yields its RoundStat and its surviving classes.

    The records the provers declare are read once per call. From round 2 on,
    a run with provers builds the round's prover operator once and moves
    every class with it; each class's verifier pass leaves its residual
    merged by the records into classes of its own (`_verify_and_measure`),
    so a round may hold several. A class's checks sum its state before the
    move (`_mass`). The last round yielded is `p.cutoff`'s or the first
    whose residual mass is at most PRUNE_TOL. Round j+1 is built only when
    the caller asks for it, from the provers' strategies as they are then.
    `after` resumes from a pair yielded by a run with these records or none,
    round 0 (the initial state) by default; the rounds that follow are the
    uninterrupted run's. A pair may keep a part of its classes'
    configurations, with the residual mass of that part: a sweep resumes so
    without the groups it measured. Every verifier pass reads the verifier's
    column cache (`_columns`).
    """
    quantum = p.verifier.is_quantum()
    tape = input_tape(x, p.verifier)
    columns = _columns(p.verifier, tape)
    records = [(pr.index - 1, getattr(pr.strategy, "record", None)) for pr in p.provers]
    lowered = tuple([slot for slot, record in records if record == "lower"])
    logged = tuple([slot for slot, record in records if record == "tape"])
    records = (lowered, logged) if lowered or logged else None
    if after is None:
        after = RoundStat(0, 0.0, 0.0, 1.0, 1, 1), [_Class(initial_state(p, x), 1)]
    stat, survivors = after
    before = stat.residual_mass
    for j in range(stat.index + 1, p.cutoff + 1):
        if before <= PRUNE_TOL:
            return
        p_acc = p_rej = residual_mass = 0.0
        configurations = stored = 0
        move = prover_operator(p.provers, j - 1, quantum) if j >= 2 and p.provers else None
        last, survivors = survivors, []
        for state, multiplicity in last:
            after_mass, acc, rej, left, size, classes = _verify_and_measure(
                apply_sparse_operator(move, state) if move else state, p.verifier, tape, columns, records, multiplicity)
            survivors += classes
            # the verifier pass checks both stages against the class's mass before the move
            _check_round(j, _mass(state, quantum), after_mass, acc, rej, left)
            p_acc += multiplicity * acc
            p_rej += multiplicity * rej
            residual_mass += multiplicity * left
            configurations += multiplicity * size
            stored += size
        # each class was checked; the weighted round mass must hold too, so a
        # drift spread thinly over many classes still faults
        _check_round(j, before, p_acc + p_rej + residual_mass, p_acc, p_rej, residual_mass)
        yield RoundStat(j, p_acc, p_rej, residual_mass, configurations, stored), survivors
        before = residual_mass


def simulate(p: ProtocolSpec, x: str, cutoff: int | None = None) -> RunResult:
    """Simulate p on x up to the round cutoff; its verifier's mode picks amplitudes or probabilities."""
    if cutoff is not None:
        p = replace(p, cutoff=cutoff)
    if p.cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    rounds = [stat for stat, _ in _rounds(p, x)]
    last = rounds[-1]
    halted = last.index if last.residual_mass <= PRUNE_TOL else None
    return RunResult(
        protocol=p.name,
        input=x,
        mode=p.verifier.mode,
        rounds=rounds,
        p_accept=sum(stat.p_accept for stat in rounds),
        p_reject=sum(stat.p_reject for stat in rounds),
        leftover=0.0 if halted else last.residual_mass,
        steps_counted=len(rounds) * (p.k + 1) - p.k,
        halted_round=halted,
    )
