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
evolve identically. So after a round in which a cell dies, the driver keeps
them once, as a class with an integer multiplicity: it calls `run_round`
once per class and weights each class's masses by its multiplicity.
`RoundStat.configurations` is the sum of multiplicity times residual size,
exactly the pure state's count. A run where no cell dies is one class of
multiplicity 1.

`_rounds` is the one round driver: a generator that yields each round as it
is run, which `_run` consumes whole and derandomization (`adversary`) steps
through one round at a time. It resumes from any pair it yielded (`after`):
sweep replays resume from the shared round 1, and derandomization scores
each candidate reply from the walk's current round.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
    index: int
    p_accept: float
    p_reject: float
    residual_mass: float
    configurations: int


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
    equals applying them one after another; slots of other provers keep
    their cell and tape. Applied to a state, the composition is pruned once,
    after the last prover.
    """
    by_slot = {prover.index - 1: prover.strategy for prover in provers}

    def op(config: Configuration):
        q, head, comm, tapes = config
        if not comm:
            return [(config, 1.0)]
        per_slot = []
        for slot, (cell, tape) in enumerate(zip(comm, tapes)):
            strategy = by_slot.get(slot)
            if strategy is None:
                per_slot.append((((cell, tape), 1.0),))
            elif quantum:
                per_slot.append(strategy.apply_quantum(step, cell, tape))
            else:
                per_slot.append(((strategy.apply_classical(step, cell, tape), 1.0),))
        out = []
        for combo in product(*per_slot):
            moves, weights = zip(*combo)
            cells, new_tapes = zip(*moves)
            out.append((Configuration(q, head, cells, new_tapes), prod(weights)))
        return out

    return op


def verifier_operator(verifier: VerifierSpec, tape: tuple[str, ...]) -> Callable:
    n = len(tape)
    # +1 and -1 reach the same cell only on the two-cell tape of ""; that
    # breaks interference, so only quantum verifiers must not do it
    check_moves = n == 2 and verifier.is_quantum()

    def op(config: Configuration):
        sigma = tape[config.head % n]
        branches = verifier.lookup(config.state, sigma, config.comm)
        out = []
        for (q2, d, sent, w) in branches:
            head = (config.head + d) % n
            out.append((Configuration(q2, head, sent, config.tapes), complex(w)))
        if check_moves:
            moves: dict = {}
            for (_, d, _, _), (target, _) in zip(branches, out):
                if moves.setdefault(target, d) != d:
                    raise RunFault(
                        f"branches of {config} with head moves {moves[target]:+d} and {d:+d} "
                        f"both land on {target} of the two-cell tape"
                    )
        return out

    return op


def _mass(state: StateVector, quantum: bool) -> float:
    if quantum:
        return norm_sq(state)
    return sum(w.real for w in state.values())


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


def _column(branches, quantum: bool, accept, reject) -> _Column:
    summed: dict = {}
    for t, w in branches:
        target = (t.state, t.head, t.comm)
        summed[target] = summed.get(target, 0j) + w
    targets = list(summed.items())
    smallest = min((abs(w) for _, w in targets), default=0.0)
    return _Column(targets, smallest, *_measure(targets, quantum, accept, reject))


def _verify_and_measure(
    state: StateVector, verifier: VerifierSpec, tape: tuple[str, ...], quantum: bool
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
    its live targets become configurations. Columns come from
    verifier_operator, once per (state, head, comm).
    """
    op = verifier_operator(verifier, tape)
    accept, reject = verifier.accept, verifier.reject
    columns: dict = {}
    sharing = Counter([config.tapes for config in state])
    shared: dict = {}
    after = p_acc = p_rej = 0.0
    residual: StateVector = {}
    for config, amp in state.items():
        key = config[:3]
        column = columns.get(key)
        if column is None:
            column = columns[key] = _column(op(config), quantum, accept, reject)
        tapes = config.tapes
        if sharing[tapes] > 1 or abs(amp) * column.smallest < PRUNE_TOL:
            shared.setdefault(tapes, []).append((column, amp))
            continue
        scale = amp.real * amp.real + amp.imag * amp.imag if quantum else amp.real
        after += scale * column.total
        p_acc += scale * column.accept
        p_rej += scale * column.reject
        for (q2, head, sent), w in column.live.items():
            residual[Configuration(q2, head, sent, tapes)] = amp * w
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
            residual[Configuration(q2, head, sent, tapes)] = a
    return after, p_acc, p_rej, residual


def _check_round(
    round_index: int,
    before: float,
    after: float,
    p_acc: float,
    p_rej: float,
    residual_mass: float,
) -> None:
    """Raise RunFault unless the round kept its mass and the measurement lost none."""
    if abs(after - before) > ROUND_TOL:
        raise RunFault(
            f"round {round_index} is not mass-preserving: {before:.12g} -> {after:.12g}; "
            "run the well-formedness check"
        )
    if abs((p_acc + p_rej + residual_mass) - after) > CONSERVATION_TOL:
        raise RunFault(f"measurement at round {round_index} lost probability mass")


def run_round(
    p: ProtocolSpec,
    tape: tuple[str, ...],
    state: StateVector,
    round_index: int,
    quantum: bool,
    *,
    before: float | None = None,
    measured: bool = False,
) -> tuple[float, float, StateVector]:
    """One full round; returns (accept mass, reject mass, unnormalized residual).

    `before` is the state's mass when the caller already holds it. With
    `measured`, a classical verifier's provers move by `apply_quantum`, whose
    weights are then probabilities (derandomization's measured provers).
    """
    if before is None:
        before = _mass(state, quantum)
    if round_index >= 2:
        state = apply_sparse_operator(prover_operator(p.provers, round_index - 1, quantum or measured), state)
    after, p_acc, p_rej, residual = _verify_and_measure(state, p.verifier, tape, quantum)
    _check_round(round_index, before, after, p_acc, p_rej, _mass(residual, quantum))
    return p_acc, p_rej, residual


def _touched(prover: ProverSpec, step: int) -> frozenset[int]:
    """The tape cells the prover's move at `step` reads or writes; all of them unless declared."""
    declared = declared_cells(prover.strategy, step)
    if declared is None:
        return frozenset(range(prover.space))
    return frozenset(i for i in declared if 0 <= i < prover.space)


class _Fold(NamedTuple):
    """What the fold after one round needs, per prover tape."""
    dead: tuple[tuple[int, ...], ...]  # cells touched so far and never again
    carried: tuple[tuple[int, ...], ...]  # cells touched so far and again later


def _fold_after(p: ProtocolSpec, j: int, cutoff: int, touched: dict) -> _Fold | None:
    """The fold after round j; None when no tape cell dies in round j.

    The provers move at step j-1 in round j. A cell is dead after round j
    when some move has touched it and no move up to the cutoff touches it
    again. Cells no move has touched yet hold the blank in every history, so
    only `carried` cells can tell two histories apart outside dead cells.
    `touched` memoizes each step's cells for the run.
    """
    def at(step: int) -> list[frozenset[int]]:
        if step not in touched:
            touched[step] = [_touched(prover, step) for prover in p.provers]
        return touched[step]

    if not 2 <= j < cutoff:
        return None
    # most cells a move touches are touched again at the next step, so scan forward lazily
    dying = [set(cells) for cells in at(j - 1)]
    for step in range(j, cutoff):
        if not any(dying):
            return None
        for cells, now in zip(dying, at(step)):
            cells -= now
    if not any(dying):
        return None
    later = [frozenset().union(*cells) for cells in zip(*(at(s) for s in range(j, cutoff)))]
    earlier = [frozenset().union(*cells) for cells in zip(*(at(s) for s in range(1, j)))]
    return _Fold(
        tuple(tuple(sorted(a - b)) for a, b in zip(earlier, later)),
        tuple(tuple(sorted(a & b)) for a, b in zip(earlier, later)),
    )


class _Class(NamedTuple):
    """Histories kept once: a representative state, its multiplicity, and its mass if known."""
    state: StateVector
    multiplicity: int
    mass: float | None


def _pick(tapes: tuple[tuple[str, ...], ...], cells: tuple[tuple[int, ...], ...]) -> tuple:
    """The symbols in `cells` of each tape."""
    return tuple(tuple(tape[i] for i in picked) for tape, picked in zip(tapes, cells))


def _fold(classes: list[_Class], fold: _Fold) -> list[_Class]:
    """Split each class into histories by its dead cells and merge equal histories.

    A history is the part of a class with one content of the dead cells. No
    later move reads or writes them, so histories never interfere again, and
    two whose states agree outside dead cells evolve identically. Those merge
    into one class whose multiplicity is the sum of theirs; the first keeps
    its configurations, real dead cells included, as the representative.
    """
    merged: dict = {}
    for state, multiplicity, _ in classes:
        histories: dict = {}
        split: dict = {}  # tapes -> (dead content, carried content)
        for config, amp in state.items():
            tapes = config.tapes
            parts = split.get(tapes)
            if parts is None:
                parts = split[tapes] = (_pick(tapes, fold.dead), _pick(tapes, fold.carried))
            dead, carried = parts
            history = histories.get(dead)
            if history is None:
                history = histories[dead] = ({}, [])
            history[0][config] = amp
            history[1].append((config.state, config.head, config.comm, carried, amp))
        for members, outside in histories.values():
            key = frozenset(outside)
            entry = merged.get(key)
            if entry is None:
                merged[key] = [members, multiplicity]
            else:
                entry[1] += multiplicity
    return [_Class(members, multiplicity, None) for members, multiplicity in merged.values()]


def _rounds(
    p: ProtocolSpec, x: str, cutoff: int, quantum: bool, measured: bool = False,
    after: tuple[RoundStat, list[_Class]] | None = None,
) -> Iterator[tuple[RoundStat, list[_Class]]]:
    """The run of p on x, one round per step: yields its RoundStat and its surviving classes.

    The last round yielded is the cutoff's or the first whose residual mass is
    at most PRUNE_TOL. Round j+1 is built only when the caller asks for it,
    from the provers' strategies as they are then. `measured` is run_round's.
    `after` resumes from a pair the run yielded, round 0 (the initial state)
    by default; the rounds that follow are the uninterrupted run's.
    """
    tape = input_tape(x, p.verifier)
    touched: dict = {}
    if after is None:
        after = RoundStat(0, 0.0, 0.0, 1.0, 1), [_Class(initial_state(p, x), 1, 1.0)]
    stat, survivors = after
    before = stat.residual_mass
    for j in range(stat.index + 1, cutoff + 1):
        if before <= PRUNE_TOL:
            return
        fold = _fold_after(p, j - 1, cutoff, touched)
        classes = survivors if fold is None else _fold(survivors, fold)
        p_acc = p_rej = residual_mass = 0.0
        configurations = 0
        survivors = []
        for state, multiplicity, mass in classes:
            acc, rej, residual = run_round(p, tape, state, j, quantum, before=mass, measured=measured)
            left = _mass(residual, quantum)
            p_acc += multiplicity * acc
            p_rej += multiplicity * rej
            residual_mass += multiplicity * left
            configurations += multiplicity * len(residual)
            if residual:
                survivors.append(_Class(residual, multiplicity, left))
        # run_round checked each class; the weighted round mass must hold too, so
        # a drift spread thinly over many classes still faults
        _check_round(j, before, p_acc + p_rej + residual_mass, p_acc, p_rej, residual_mass)
        yield RoundStat(j, p_acc, p_rej, residual_mass, configurations), survivors
        before = residual_mass


def _run(p: ProtocolSpec, x: str, cutoff: int | None, quantum: bool, measured: bool = False) -> RunResult:
    if cutoff is None:
        cutoff = p.cutoff
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    rounds = [stat for stat, _ in _rounds(p, x, cutoff, quantum, measured)]
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


def run(p: ProtocolSpec, x: str, cutoff: int | None = None) -> RunResult:
    """Simulate a quantum-verifier protocol on x up to the round cutoff."""
    if not p.verifier.is_quantum():
        raise ValidationError(f"mode {p.verifier.mode!r} is classical; use run_classical")
    return _run(p, x, cutoff, quantum=True)


def run_classical(p: ProtocolSpec, x: str, cutoff: int | None = None) -> RunResult:
    """Simulate a probabilistic-verifier protocol; weights are probabilities, never squared."""
    if p.verifier.is_quantum():
        raise ValidationError(f"mode {p.verifier.mode!r} is quantum; use run")
    return _run(p, x, cutoff, quantum=False)


def simulate(p: ProtocolSpec, x: str, cutoff: int | None = None) -> RunResult:
    """Dispatch to run or run_classical based on the verifier's mode."""
    if p.verifier.is_quantum():
        return run(p, x, cutoff)
    return run_classical(p, x, cutoff)
