"""Round-by-round execution of a protocol on one input string.

A configuration is (verifier state, head position, communication cells,
prover tapes). The input lives on a circular tape `¢ x $`; the head index is
taken modulo its length, so a one-way machine that keeps moving right wraps
around rather than falling off.

Each round has three stages: provers transform their cell and private tape
(from round 2 on), the verifier consumes its cells and moves its head, and a
projective measurement splits off the accepting and rejecting mass; the last
two run as one pass grouped by prover tapes. The residual stays
unnormalized; whatever mass is still unresolved at the cutoff is reported as
leftover.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .amplitudes import (
    CONSERVATION_TOL,
    PRUNE_TOL,
    StateVector,
    apply_sparse_operator,
    norm_sq,
)
from .errors import InvalidInput, RunFault, ValidationError
from .specs import (
    BLANK,
    LEFT_END,
    RIGHT_END,
    ProtocolSpec,
    ProverSpec,
    VerifierSpec,
)

ROUND_TOL = 1e-9


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


def prover_operator(prover: ProverSpec, step: int, quantum: bool) -> Callable:
    slot = prover.index - 1

    def op(config: Configuration):
        if quantum:
            moves = prover.strategy.apply_quantum(step, config.comm[slot], config.tapes[slot])
        else:
            reply, new_tape = prover.strategy.apply_classical(step, config.comm[slot], config.tapes[slot])
            moves = [((reply, new_tape), 1.0 + 0j)]
        out = []
        for (reply, new_tape), amp in moves:
            comm = config.comm[:slot] + (reply,) + config.comm[slot + 1:]
            tapes = config.tapes[:slot] + (new_tape,) + config.tapes[slot + 1:]
            out.append((Configuration(config.state, config.head, comm, tapes), amp))
        return out

    return op


def verifier_operator(verifier: VerifierSpec, tape: tuple[str, ...]) -> Callable:
    n = len(tape)

    def op(config: Configuration):
        sigma = tape[config.head % n]
        branches = verifier.lookup(config.state, sigma, config.comm)
        out = []
        for (q2, d, sent, w) in branches:
            head = (config.head + d) % n
            out.append((Configuration(q2, head, sent, config.tapes), complex(w)))
        return out

    return op


def _mass(state: StateVector, quantum: bool) -> float:
    if quantum:
        return norm_sq(state)
    return sum(w.real for w in state.values())


def _verify_and_measure(
    state: StateVector, verifier: VerifierSpec, tape: tuple[str, ...], quantum: bool
) -> tuple[float, float, float, StateVector]:
    """Verifier stage and measurement in one pass.

    Returns (mass after the stage, accept mass, reject mass, residual). The
    verifier never writes a prover tape, so only configurations with equal
    tapes interfere: targets are summed per tape group and pruned like
    apply_sparse_operator prunes, and halting targets are measured without
    being stored. Columns come from verifier_operator, once per
    (state, head, comm).
    """
    op = verifier_operator(verifier, tape)
    accept, reject = verifier.accept, verifier.reject
    columns: dict = {}
    groups: dict = {}
    for config, amp in state.items():
        groups.setdefault(config.tapes, []).append((config, amp))
    after = p_acc = p_rej = 0.0
    residual: StateVector = {}
    for tapes, members in groups.items():
        local: dict = {}
        for config, amp in members:
            key = config[:3]
            column = columns.get(key)
            if column is None:
                column = columns[key] = [((t.state, t.head, t.comm), w) for t, w in op(config)]
            for target, w in column:
                local[target] = local.get(target, 0j) + amp * w
        for (q2, head, sent), a in local.items():
            if abs(a) < PRUNE_TOL:
                continue
            weight = a.real * a.real + a.imag * a.imag if quantum else a.real
            after += weight
            if q2 in accept:
                p_acc += weight
            elif q2 in reject:
                p_rej += weight
            else:
                residual[Configuration(q2, head, sent, tapes)] = a
    return after, p_acc, p_rej, residual


def _check_round(
    round_index: int,
    before: float,
    after: float,
    p_acc: float,
    p_rej: float,
    residual: StateVector,
    quantum: bool,
) -> None:
    """Raise RunFault unless the round kept its mass and the measurement lost none."""
    if abs(after - before) > ROUND_TOL:
        raise RunFault(
            f"round {round_index} is not mass-preserving: {before:.12g} -> {after:.12g}; "
            "run the well-formedness check"
        )
    if abs((p_acc + p_rej + _mass(residual, quantum)) - after) > CONSERVATION_TOL:
        raise RunFault(f"measurement at round {round_index} lost probability mass")


def run_round(
    p: ProtocolSpec,
    tape: tuple[str, ...],
    state: StateVector,
    round_index: int,
    quantum: bool,
) -> tuple[float, float, StateVector]:
    """One full round; returns (accept mass, reject mass, unnormalized residual)."""
    before = _mass(state, quantum)
    if round_index >= 2:
        for prover in p.provers:
            state = apply_sparse_operator(prover_operator(prover, round_index - 1, quantum), state)
    after, p_acc, p_rej, residual = _verify_and_measure(state, p.verifier, tape, quantum)
    _check_round(round_index, before, after, p_acc, p_rej, residual, quantum)
    return p_acc, p_rej, residual


def _run(p: ProtocolSpec, x: str, cutoff: int | None, quantum: bool) -> RunResult:
    if cutoff is None:
        cutoff = p.cutoff
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    tape = input_tape(x, p.verifier)
    state = initial_state(p, x)
    rounds: list[RoundStat] = []
    total_acc = 0.0
    total_rej = 0.0
    halted = None
    executed = 0
    for j in range(1, cutoff + 1):
        p_acc, p_rej, state = run_round(p, tape, state, j, quantum)
        executed = j
        total_acc += p_acc
        total_rej += p_rej
        residual_mass = _mass(state, quantum)
        rounds.append(RoundStat(j, p_acc, p_rej, residual_mass, len(state)))
        if residual_mass <= PRUNE_TOL:
            halted = j
            state = {}
            break
    leftover = _mass(state, quantum)
    steps = executed * (p.k + 1) - p.k if executed else 0
    return RunResult(
        protocol=p.name,
        input=x,
        mode=p.verifier.mode,
        rounds=rounds,
        p_accept=total_acc,
        p_reject=total_rej,
        leftover=leftover,
        steps_counted=steps,
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
