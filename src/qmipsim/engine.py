"""Round-by-round execution of a protocol on one input string.

A configuration is (verifier state, head position, communication cells,
prover tapes). The input lives on a circular tape `¢ x $`; the head index is
taken modulo its length, so a one-way machine that keeps moving right wraps
around rather than falling off.

Each round has three stages: provers transform their cell and private tape
(from round 2 on), the verifier consumes its cells and moves its head, and a
projective measurement splits off the accepting and rejecting mass. The
provers move together, as one operator pruned once; the verifier stage and
the measurement run as one pass grouped by prover tapes. The residual stays
unnormalized; whatever mass is still unresolved at the cutoff is reported
as leftover.

Strategies declare the tape cells each move reads or writes
(`specs.declared_cells`); a cell no later move touches is dead. The part of
the state with one content of the dead cells, a history, never interferes
with another again, and histories whose states agree outside dead cells
evolve identically. So as soon as a cell dies, right after the prover stage
of the round in which it dies, the driver keeps them once, as a class with
an integer multiplicity: the verifier pass and its measurement then run
once per class, and each class's masses are weighted by its multiplicity.
`RoundStat.configurations` is the sum of multiplicity times residual size,
exactly the pure state's count; `RoundStat.stored` is the sum of residual
sizes, what the driver holds. A run where no cell dies is one class of
multiplicity 1.

`_rounds` is the one round driver: a generator that yields each round as it is
run, which `simulate` consumes whole and derandomization (`adversary`) steps
through one round at a time. Its run is the protocol's: the verifier's mode
sets how rounds are measured and the cutoff where they stop. It resumes from
any pair it yielded (`after`): sweep replays resume from the shared round 1,
and derandomization scores each candidate reply from the walk's current round.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, islice, product
from math import prod
from operator import itemgetter, or_
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
    declared_cells,
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
    configurations after the round, `stored` those the driver keeps for them."""
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
        if not comm:
            return [(config, 1.0)]
        cells = []
        new_tapes = []
        weights = []
        weight = 1.0
        slot = 0
        for cell, tape in zip(comm, tapes):
            strategy, moves_quantum = by_slot.get(slot, absent)
            if strategy is None:
                w = 1.0
            elif moves_quantum:
                moves = strategy.apply_quantum(step, cell, tape)
                if len(moves) != 1:
                    return branched(config, slot, moves, cells, new_tapes, weights)
                (cell, tape), w = moves[0]
            else:
                cell, tape = strategy.apply_classical(step, cell, tape)
                w = 1.0
            cells.append(cell)
            new_tapes.append(tape)
            weights.append(w)
            weight *= w
            slot += 1
        return [(make((q, head, tuple(cells), tuple(new_tapes))), weight)]

    def branched(config, slot, moves, cells, new_tapes, weights):
        """The op at `config` once `slot` has `moves`, not one: the product of every slot's moves."""
        q, head, comm, tapes = config
        per_slot = [(((cell, tape), w),) for cell, tape, w in zip(cells, new_tapes, weights)]
        per_slot.append(moves)
        for slot, (cell, tape) in islice(enumerate(zip(comm, tapes)), slot + 1, None):
            strategy, moves_quantum = by_slot.get(slot, absent)
            if strategy is None:
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
    """One verifier column without tapes, and what the closed form needs.

    The totals and live targets are the column's `_measure`.
    """
    targets: list  # [((state, head, comm), w)], duplicate targets summed
    smallest: float  # smallest |w|
    total: float
    accept: float
    reject: float
    live: dict  # the non-halting targets


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
    """The verifier's column at `config`, built straight from its lookup rows."""
    q, head, comm, _ = config
    n = len(tape)
    branches = verifier.lookup(q, tape[head % n], comm)
    if n == 2 and quantum:
        _check_head_moves(config, branches, n)
    summed: dict = {}
    for q2, d, sent, w in branches:
        target = (q2, (head + d) % n, sent)
        summed[target] = summed.get(target, 0j) + complex(w)
    targets = list(summed.items())
    smallest = min((abs(w) for _, w in targets), default=0.0)
    return _Column(targets, smallest, *_measure(targets, quantum, verifier.accept, verifier.reject))


def _verify_and_measure(
    state: StateVector, verifier: VerifierSpec, tape: tuple[str, ...], columns: dict
) -> tuple[float, float, float, StateVector]:
    """Verifier stage and measurement in one pass.

    Returns (mass after the stage, accept mass, reject mass, residual). The
    verifier never writes a prover tape, so only configurations with equal
    tapes interfere. A configuration alone on its tapes cannot interfere:
    when every target of its column survives the prune (|amp| times the
    column's smallest |w| is at least PRUNE_TOL), its masses are |amp|^2
    (amp.real when classical) times the column's totals and only its
    non-halting targets are stored. Every other configuration is summed per
    tape group in a local dict, which `_measure` prunes and measures; only
    its live targets become configurations. Columns are built from the
    verifier's rows, once per (state, head, comm), into `columns`, a cache
    the caller owns for this verifier and tape: the round driver passes a
    fresh one per call, the sweep's round-2 scorer one per sweep.
    """
    quantum = verifier.is_quantum()
    accept, reject = verifier.accept, verifier.reject
    sharing: dict = {}  # per tapes: whether another configuration has them too
    for config in state:
        sharing[config.tapes] = config.tapes in sharing
    shared: dict = {}
    after = p_acc = p_rej = 0.0
    residual: StateVector = {}
    for config, amp in state.items():
        key = config[:3]
        column = columns.get(key)
        if column is None:
            column = columns[key] = _column(verifier, tape, config, quantum)
        tapes = config.tapes
        if sharing[tapes] or abs(amp) * column.smallest < PRUNE_TOL:
            shared.setdefault(tapes, []).append((column, amp))
            continue
        scale = amp.real * amp.real + amp.imag * amp.imag if quantum else amp.real
        after += scale * column.total
        p_acc += scale * column.accept
        p_rej += scale * column.reject
        for (q2, head, sent), w in column.live.items():
            residual[Configuration._make((q2, head, sent, tapes))] = amp * w
    for tapes, members in shared.items():
        local: dict = {}
        for column, amp in members:
            for target, w in column.targets:
                local[target] = local.get(target, 0j) + amp * w
        kept, acc, rej, live = _measure(local.items(), quantum, accept, reject)
        after += kept
        p_acc += acc
        p_rej += rej
        for (q2, head, sent), a in live.items():
            residual[Configuration._make((q2, head, sent, tapes))] = a
    return after, p_acc, p_rej, residual


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


def _prover_stage(p: ProtocolSpec, state: StateVector, round_index: int) -> StateVector:
    """The provers' moves of round `round_index` applied to `state`; round 1 has none."""
    if round_index < 2:
        return state
    return apply_sparse_operator(prover_operator(p.provers, round_index - 1, p.verifier.is_quantum()), state)


def run_round(
    p: ProtocolSpec, tape: tuple[str, ...], state: StateVector, round_index: int
) -> tuple[float, float, StateVector]:
    """One full round of one state, unfolded; returns (accept mass, reject mass, residual).

    The verifier's mode says whether masses are squared amplitudes or plain
    weights. The round driver runs the same two stages with the fold between them.
    """
    quantum = p.verifier.is_quantum()
    before = _mass(state, quantum)
    state = _prover_stage(p, state, round_index)
    after, p_acc, p_rej, residual = _verify_and_measure(state, p.verifier, tape, {})
    _check_round(round_index, before, after, p_acc, p_rej, _mass(residual, quantum))
    return p_acc, p_rej, residual


def _touched(prover: ProverSpec, step: int) -> frozenset[int]:
    """The tape cells the prover's move at `step` reads or writes; all of them unless declared."""
    tape = range(prover.space)
    declared = declared_cells(prover.strategy, step)
    return frozenset(tape if declared is None else filter(tape.__contains__, declared))


class _Fold(NamedTuple):
    """What the fold after one round needs, per prover tape."""
    dead: tuple[tuple[int, ...], ...]  # cells touched so far and never again
    carried: tuple[tuple[int, ...], ...]  # cells touched so far and again later


def _fold_schedule(p: ProtocolSpec) -> Callable[[int], _Fold | None]:
    """The fold after the prover stage of round j, as a function of j; None when no cell dies.

    The provers move at step j-1 in round j. A cell is dead from that move on
    when some move has touched it and no move up to p's cutoff touches it
    again, so the driver folds before round j's verifier pass (never in the
    last round). Cells no move has touched yet hold the blank in every
    history, so only `carried` cells can tell two histories apart outside
    dead cells. Each step's cells and their prefix and suffix unions per tape
    are computed once, so a round's fold costs a few set operations.
    """
    # per_tape[i][s - 1]: the cells prover i touches at step s
    per_tape = list(zip(*([_touched(pr, step) for pr in p.provers] for step in range(1, p.cutoff))))
    earlier = [list(accumulate(cells, or_)) for cells in per_tape]
    later = [list(accumulate(reversed(cells), or_))[::-1] for cells in per_tape]

    def fold_after(j: int) -> _Fold | None:
        if not 2 <= j < p.cutoff or not any(cells[j - 2] - rest[j - 1] for cells, rest in zip(per_tape, later)):
            return None
        spans = [(before[j - 2], rest[j - 1]) for before, rest in zip(earlier, later)]
        return _Fold(tuple(tuple(sorted(a - b)) for a, b in spans), tuple(tuple(sorted(a & b)) for a, b in spans))

    return fold_after


class _Class(NamedTuple):
    """Histories kept once: a representative state, its multiplicity, and its mass if known."""
    state: StateVector
    multiplicity: int
    mass: float | None


def _fold(classes: list[_Class], fold: _Fold) -> list[_Class]:
    """Split each class into histories by its dead cells and merge equal histories.

    A history is the part of a class with one content of the dead cells. No
    later move reads or writes them, so histories never interfere again, and
    two whose states agree outside dead cells evolve identically. Those merge
    into one class whose multiplicity is the sum of theirs; the first keeps
    its configurations, real dead cells included, as the representative. A
    class that is one history keeps its own dict and mass.
    """
    # one getter per tape, called as get(getter, tape); `itemgetter(slice(0))` reads no cell
    get = itemgetter.__call__
    dead_of = [itemgetter(*cells) if cells else itemgetter(slice(0)) for cells in fold.dead]
    carried_of = [itemgetter(*cells) if cells else itemgetter(slice(0)) for cells in fold.carried]
    merged: dict = {}
    for state, multiplicity, mass in classes:
        histories: dict = {}
        for config, amp in state.items():
            q, head, comm, tapes = config
            dead = tuple(map(get, dead_of, tapes))
            history = histories.get(dead)
            if history is None:
                history = histories[dead] = ({}, [])
            history[0][config] = amp
            history[1].append((q, head, comm, tuple(map(get, carried_of, tapes)), amp))
        whole = len(histories) == 1
        for members, outside in histories.values():
            key = frozenset(outside)
            entry = merged.get(key)
            if entry is None:
                merged[key] = [state, multiplicity, mass] if whole else [members, multiplicity, None]
            else:
                entry[1] += multiplicity
    return [_Class(*entry) for entry in merged.values()]


def _rounds(
    p: ProtocolSpec, x: str, after: tuple[RoundStat, list[_Class]] | None = None,
) -> Iterator[tuple[RoundStat, list[_Class]]]:
    """The run of p on x, one round per step: yields its RoundStat and its surviving classes.

    Each round runs the prover stage per class, folds the cells that died in
    it (`_fold_schedule`, computed once per call, at the first round that can
    fold: a caller that takes only round 1, or a cutoff-2 run, never builds
    it), then runs the verifier pass and its measurement per folded class.
    The last round yielded is `p.cutoff`'s or the first whose residual mass
    is at most PRUNE_TOL. Round j+1 is built only when the caller asks for
    it, from the provers' strategies as they are then. `after` resumes from
    a pair the run yielded, round 0 (the initial state) by default; the
    rounds that follow are the uninterrupted run's.
    """
    quantum = p.verifier.is_quantum()
    tape = input_tape(x, p.verifier)
    fold_after = None
    if after is None:
        after = RoundStat(0, 0.0, 0.0, 1.0, 1, 1), [_Class(initial_state(p, x), 1, 1.0)]
    stat, survivors = after
    before = stat.residual_mass
    for j in range(stat.index + 1, p.cutoff + 1):
        if before <= PRUNE_TOL:
            return
        # a class keeps its mass from before the prover stage: an unfolded class
        # checks both stages against it in its verifier pass; a fold checks the
        # prover stage first, and the classes it keeps whole keep the moved mass
        classes = [c._replace(state=_prover_stage(p, c.state, j)) for c in survivors]
        fold = None
        if 2 <= j < p.cutoff:
            fold_after = fold_after or _fold_schedule(p)
            fold = fold_after(j)
        if fold is not None:
            for i, (moved, multiplicity, mass) in enumerate(classes):
                moved_mass = _mass(moved, quantum)
                _check_round(j, mass, moved_mass, 0.0, 0.0, moved_mass)
                classes[i] = _Class(moved, multiplicity, moved_mass)
            classes = _fold(classes, fold)
        p_acc = p_rej = residual_mass = 0.0
        configurations = stored = 0
        survivors = []
        for state, multiplicity, mass in classes:
            mass = _mass(state, quantum) if mass is None else mass
            after_mass, acc, rej, residual = _verify_and_measure(state, p.verifier, tape, {})
            left = _mass(residual, quantum)
            _check_round(j, mass, after_mass, acc, rej, left)
            p_acc += multiplicity * acc
            p_rej += multiplicity * rej
            residual_mass += multiplicity * left
            configurations += multiplicity * len(residual)
            stored += len(residual)
            if residual:
                survivors.append(_Class(residual, multiplicity, left))
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
