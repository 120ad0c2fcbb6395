"""Machine descriptions: alphabets, track symbols, prover strategies, and specs.

A protocol couples one finite-automaton verifier with k provers that talk to
it through single-symbol communication cells. Everything here is data plus
structural checkers; the dynamics live in `engine`.

Symbols are plain strings. A "track symbol" packs an upper and a lower
string into one atomic symbol `[upper/lower]`; the all-blank pair collapses
to the plain blank so that track alphabets literally contain `#`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, ClassVar, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    AlphabetMismatch,
    MissingTransition,
    SpaceExceeded,
    ValidationError,
)
from .tolerances import AMPLITUDE_TOL, CLASSICAL_ROW_TOL, ORTHO_TOL

BLANK = "#"
LEFT_END = "¢"   # cent sign, marks tape cell 0
RIGHT_END = "$"       # marks tape cell n+1

QUANTUM_MODES = ("1qfa", "2qfa")
CLASSICAL_MODES = ("1pfa", "2pfa")
ONE_WAY_MODES = ("1qfa", "1pfa")
ALL_MODES = QUANTUM_MODES + CLASSICAL_MODES


# ---------------------------------------------------------------------------
# track symbols and encodings

def track(upper: str, lower: str) -> str:
    """One atomic two-track symbol; [#/#] collapses to the plain blank."""
    if upper == BLANK and lower == BLANK:
        return BLANK
    return f"[{upper}/{lower}]"


@functools.lru_cache(maxsize=4096)
def parse_track(symbol: str) -> tuple[str, str] | None:
    """Split a track symbol at its top-level slash; None if not track-shaped.

    Memoized: strategies parse the same few symbols once per source, and the
    cached halves let tape cells share their string objects.
    """
    if symbol == BLANK:
        return (BLANK, BLANK)
    if len(symbol) < 3 or symbol[0] != "[" or symbol[-1] != "]":
        return None
    depth = 0
    for i, ch in enumerate(symbol):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "/" and depth == 1:
            return (symbol[1:i], symbol[i + 1:-1])
    return None


def make_track_alphabet(upper: Sequence[str], lower: Sequence[str]) -> tuple[str, ...]:
    """All pairings in deterministic order: upper-major, then lower."""
    return tuple(track(u, l) for u in upper for l in lower)


def fixed_width_binary_encoding(alphabet: Sequence[str]) -> dict[str, str]:
    """Injective fixed-width bit codes; the blank gets the all-zero string.

    Width is ceil(log2(|alphabet|)) with a floor of one bit. Symbols other
    than the blank are coded in the alphabet's own order, so the map is
    deterministic for a fixed alphabet tuple.
    """
    n = len(alphabet)
    if n == 0:
        raise ValidationError("cannot encode an empty alphabet")
    if len(set(alphabet)) != n:
        raise ValidationError("alphabet has duplicate symbols")
    width = max(1, math.ceil(math.log2(max(n, 2))))
    ordered = list(alphabet)
    if BLANK in ordered:
        ordered.remove(BLANK)
        ordered.insert(0, BLANK)
    return {sym: format(i, f"0{width}b") for i, sym in enumerate(ordered)}


def xor_symbols(encoding: Mapping[str, str], a: str, b: str) -> str:
    """Bitwise XOR of two symbols' codes, decoded back to a symbol.

    Needs the encoding to cover its full code space (alphabet size a power
    of two), otherwise the XOR can fall outside the alphabet.
    """
    code = format(int(encoding[a], 2) ^ int(encoding[b], 2), f"0{len(encoding[a])}b")
    for sym, c in encoding.items():
        if c == code:
            return sym
    raise AlphabetMismatch(
        f"xor of {a!r} and {b!r} gives unused code {code}; pad the alphabet to a power of two"
    )


# ---------------------------------------------------------------------------
# prover strategies
#
# A strategy maps (step, received symbol, private tape) to replies. Steps are
# 1-based: step j is the prover's move at round j+1. Quantum application
# returns [( (reply, new tape), amplitude ), ...] and must be a partial
# isometry on the basis states it defines; states outside the defined domain
# raise MissingTransition. Strategies that log history do it at the
# step-indexed cell, so the write target is fresh on every reachable state
# and injectivity comes for free.
#
# Every built-in but `DerandomizedStrategy` also declares `cells(step)`: the
# tape cells its move at that step reads or writes. The move never reads
# another cell and leaves every other cell as it was; the engine relies on
# this to fold histories that differ only in cells no later step touches.
# `None`, or no `cells` method at all, means the whole tape.

Tape = tuple[str, ...]
QuantumMove = list[tuple[tuple[str, Tape], complex]]


def declared_cells(strategy: object, step: int) -> tuple[int, ...] | None:
    """The cells `strategy` declares for its move at `step`; None for the whole tape."""
    cells = getattr(strategy, "cells", None)
    return None if cells is None else cells(step)


def _single_move(moves: QuantumMove, message: str, amplitude: bool = False) -> tuple[str, Tape]:
    """The one move of a deterministic column; ValidationError(message) otherwise.

    With `amplitude`, the move's amplitude must also be 1.
    """
    if len(moves) != 1 or (amplitude and not abs(moves[0][1] - 1) <= AMPLITUDE_TOL):
        raise ValidationError(message)
    return moves[0][0]


def _write_cell(tape: Tape, idx: int, symbol: str, *who: str) -> Tape:
    """`tape` with `symbol` in blank cell `idx`; a fault names the writer by `who` joined with spaces.

    A negative `idx` is past the tape's left end, not a cell counted from its right end.
    """
    if not 0 <= idx < len(tape):
        raise SpaceExceeded(f"{' '.join(who)}: tape has {len(tape)} cells, step needs cell {idx}")
    if tape[idx] != BLANK:
        raise MissingTransition(f"{' '.join(who)}: history cell {idx} already holds {tape[idx]!r}")
    return tape[:idx] + (symbol,) + tape[idx + 1:]


def log_reception(tape: Tape, step: int, comm: str, *who: str) -> Tape:
    """`tape` with the symbol received at `step` logged in its step-indexed cell, `step - 1`.

    The logging rule of `LoggedReplyStrategy` and `DerandomizedStrategy`. The
    adversary sweep calls it too, once per local state for all logged
    strategies, since the log does not depend on the reply.
    """
    return _write_cell(tape, step - 1, comm, *who)


@dataclass(frozen=True)
class EraserStrategy:
    """Builtin eraser: swap the communication cell with the step-indexed tape cell.

    On any run where the cell is still blank (every reachable state) the
    reply is # and the received symbol lands on the tape, one cell per step,
    so distinct message histories stay orthogonal forever.
    """
    kind: ClassVar[str] = "eraser"

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        idx = step - 1
        if not 0 <= idx < len(tape):
            raise SpaceExceeded(f"eraser: tape has {len(tape)} cells, step {step} needs cell {idx}")
        reply = tape[idx]
        new_tape = tape[:idx] + (comm,) + tape[idx + 1:]
        return [((reply, new_tape), 1.0 + 0j)]

    def apply_classical(self, step: int, comm: str, tape: Tape) -> tuple[str, Tape]:
        return _single_move(self.apply_quantum(step, comm, tape), "eraser has no classical form")

    def cells(self, step: int) -> tuple[int, ...]:
        return (step - 1,)


@dataclass(frozen=True)
class ClassicalTableStrategy:
    """Deterministic function table over (received symbol, work cells).

    `rows` maps (recv, work tuple) to (reply, new work tuple), both work
    tuples `work` cells long; cells past `work` are never touched. Quantum
    application requires the table to be injective (then it acts as a
    permutation on its domain).
    """
    work: int
    rows: Mapping[tuple[str, Tape], tuple[str, Tape]]
    kind: ClassVar[str] = "classical-table"

    def __post_init__(self):
        for (recv, cells), (reply, new_cells) in self.rows.items():
            if len(cells) != self.work or len(new_cells) != self.work:
                raise ValidationError(
                    f"prover table row {(recv, cells)} -> {(reply, new_cells)} "
                    f"needs work tuples of {self.work} cells"
                )

    def is_injective(self) -> bool:
        return len(set(self.rows.values())) == len(self.rows)

    def injective_per_receive(self) -> bool:
        """Injectivity of the work-tape map for each fixed received symbol."""
        for recv in {k[0] for k in self.rows}:
            images = [v for k, v in self.rows.items() if k[0] == recv]
            if len(set(images)) != len(images):
                return False
        return True

    def _lookup(self, comm: str, tape: Tape) -> tuple[str, Tape]:
        key = (comm, tape[:self.work])
        row = self.rows.get(key)
        if row is None:
            raise MissingTransition(f"prover table has no row for {key}")
        return row

    def apply_classical(self, step: int, comm: str, tape: Tape) -> tuple[str, Tape]:
        reply, new_work = self._lookup(comm, tape)
        return reply, new_work + tape[self.work:]

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        return [(self.apply_classical(step, comm, tape), 1.0 + 0j)]

    def cells(self, step: int) -> tuple[int, ...]:
        return tuple(range(self.work))


@dataclass(frozen=True)
class ReversibleWrapStrategy:
    """A classical table made injective by logging each received symbol.

    The wrapped map additionally writes the received symbol at history cell
    hist_offset + step - 1. Replies are identical to the inner table's.
    """
    inner: ClassicalTableStrategy
    hist_offset: int
    kind: ClassVar[str] = "reversible-table"

    def __post_init__(self):
        if self.hist_offset < 0:
            raise ValidationError(f"reversible wrap needs a history offset of at least 0, got {self.hist_offset}")

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        reply, new_work = self.inner._lookup(comm, tape)
        work = self.inner.work
        idx = self.hist_offset + step - 1
        # a found row's work and the tape's first cells are `work` long; past them the log cell is the tape's
        if work <= idx < len(tape) and tape[idx] == BLANK:
            return [((reply, new_work + tape[work:idx] + (comm,) + tape[idx + 1:]), 1.0 + 0j)]
        return [((reply, _write_cell(new_work + tape[work:], idx, comm, "reversible wrap")), 1.0 + 0j)]

    def apply_classical(self, step: int, comm: str, tape: Tape) -> tuple[str, Tape]:
        return _single_move(self.apply_quantum(step, comm, tape), "reversible wrap has no classical form")

    def cells(self, step: int) -> tuple[int, ...]:
        return self.inner.cells(step) + (self.hist_offset + step - 1,)


@dataclass(frozen=True)
class TrackWrapStrategy:
    """Adapter for mask-channel protocols: unpack [symbol/mask], run the inner
    strategy on the upper track, stash the mask at the step-indexed cell, and
    reply [inner reply/#]."""
    inner: object
    mask_offset: int
    kind: ClassVar[str] = "track-wrap"

    def __post_init__(self):
        if self.mask_offset < 0:
            raise ValidationError(f"track wrap needs a mask offset of at least 0, got {self.mask_offset}")

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        parsed = parse_track(comm)
        if parsed is None:
            raise MissingTransition(f"track wrap received non-track symbol {comm!r}")
        upper, lower = parsed
        offset = self.mask_offset
        idx = offset + step - 1
        # with the stash cell past the inner cells and blank, every inner move of
        # `offset` cells is logged by one slice-and-concatenate
        stash = offset <= idx < len(tape) and tape[idx] == BLANK
        out: QuantumMove = []
        for (reply, inner_tape), amp in self.inner.apply_quantum(step, upper, tape[:offset]):
            if stash and len(inner_tape) == offset:
                logged = inner_tape + tape[offset:idx] + (lower,) + tape[idx + 1:]
            else:
                logged = _write_cell(inner_tape + tape[offset:], idx, lower, "track wrap")
            out.append(((track(reply, BLANK), logged), amp))
        return out

    def apply_classical(self, step: int, comm: str, tape: Tape) -> tuple[str, Tape]:
        return _single_move(
            self.apply_quantum(step, comm, tape), "track wrap over a branching strategy has no classical form"
        )

    def cells(self, step: int) -> tuple[int, ...] | None:
        """The inner strategy's cells plus this step's stash cell; None if the inner declares none."""
        inner = declared_cells(self.inner, step)
        return None if inner is None else tuple(inner) + (self.mask_offset + step - 1,)


@dataclass(frozen=True)
class UnitaryTableStrategy:
    """Explicit per-step quantum tables over (received symbol, work cells).

    `steps` maps a step index (or None for any step) to a column table
    {(recv, work): [((reply, new work), amplitude), ...]}.
    """
    work: int
    steps: Mapping[int | None, Mapping[tuple[str, Tape], QuantumMove]]
    kind: ClassVar[str] = "unitary-table"

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        table = self.steps.get(step, self.steps.get(None))
        if table is None:
            raise MissingTransition(f"unitary table has no step {step}")
        key = (comm, tape[:self.work])
        if key not in table:
            raise MissingTransition(f"unitary table step {step} has no column for {key}")
        return [((reply, work + tape[self.work:]), amp) for (reply, work), amp in table[key]]

    def apply_classical(self, step: int, comm: str, tape: Tape) -> tuple[str, Tape]:
        return _single_move(
            self.apply_quantum(step, comm, tape),
            "unitary table is not deterministic; no classical form",
            amplitude=True,
        )

    def cells(self, step: int) -> tuple[int, ...]:
        return tuple(range(self.work))


@dataclass(frozen=True)
class LoggedReplyStrategy:
    """Reply as a function of (step, received symbol), logging the received
    symbol at the step-indexed cell. Any reply function yields a valid partial
    isometry because the log keeps distinct inputs distinct. Used heavily by
    adversary families (constants, echoes, mask probes, rotations)."""
    label: str
    fn: Callable[[int, str], list[tuple[str, complex]]] = field(compare=False)
    kind: ClassVar[str] = "logged-reply"

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        logged = log_reception(tape, step, comm, "strategy", self.label)
        return [((reply, logged), amp) for reply, amp in self.fn(step, comm)]

    def apply_classical(self, step: int, comm: str, tape: Tape) -> tuple[str, Tape]:
        moves = self.apply_quantum(step, comm, tape)
        return _single_move(moves, f"strategy {self.label} branches; no classical form")

    def cells(self, step: int) -> tuple[int, ...]:
        return (step - 1,)


@dataclass(frozen=True)
class FixedReplies:
    """A reply function that ignores the received symbol: `replies[step - 1]`
    with weight 1, and the last reply past the end. Since it is data, not a
    closure, the adversary sweep reads `replies[0]` for every reception at
    step 1 instead of calling it."""
    replies: tuple[str, ...]

    def __call__(self, step: int, recv: str) -> list[tuple[str, complex]]:
        return [(self.replies[min(step, len(self.replies)) - 1], 1.0 + 0j)]


def constant_reply(symbol: str) -> LoggedReplyStrategy:
    return LoggedReplyStrategy(f"const:{symbol}", FixedReplies((symbol,)))


def echo_reply() -> LoggedReplyStrategy:
    return LoggedReplyStrategy("echo", lambda step, recv: [(recv, 1.0 + 0j)])


def rotation_reply(a: str, b: str, sign: int = 1) -> LoggedReplyStrategy:
    """Equal-weight two-symbol superposition (|a> +/- |b>)/sqrt(2)."""
    h = 1 / math.sqrt(2)
    amp_b = h if sign >= 0 else -h
    return LoggedReplyStrategy(
        f"rot:{a}{'+' if sign >= 0 else '-'}{b}",
        lambda step, recv: [(a, complex(h)), (b, complex(amp_b))],
    )


@dataclass(frozen=True)
class DerandomizedStrategy:
    """Deterministic replies chosen per (step, received symbol, tape), with the
    same step-indexed logging as the quantum strategies it was distilled from."""
    choices: Mapping[tuple[int, str, Tape], str]
    kind: ClassVar[str] = "derandomized"

    def apply_classical(self, step: int, comm: str, tape: Tape) -> tuple[str, Tape]:
        key = (step, comm, tape)
        if key not in self.choices:
            raise MissingTransition(f"derandomized strategy has no choice for {key}")
        logged = log_reception(tape, step, comm, "derandomized strategy")
        return self.choices[key], logged

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        reply, new_tape = self.apply_classical(step, comm, tape)
        return [((reply, new_tape), 1.0 + 0j)]


# ---------------------------------------------------------------------------
# fallback guards: rule-backed verifier rows evaluated lazily
#
# Transform outputs would need millions of explicit rows to cover every
# symbol a cheating prover could send. A guard covers the ill-formed
# receptions with one declaration: echo the received tuple back and move to
# a fresh rejecting state indexed by (state, input symbol), which keeps the
# induced columns injective and orthogonal to every explicit row.

def guard_state(prefix: str, q: str, sigma: str) -> str:
    return f"{prefix}[{q}|{sigma}]"


def guard_states(prefix: str, keys: Iterable[RowKey]) -> tuple[str, ...]:
    """The reject states minted per (state, input symbol) of the row keys, in first-seen order."""
    return tuple(dict.fromkeys(guard_state(prefix, q, sigma) for q, sigma, _ in keys))


class _GuardRule:
    """What both guards share. A reception matches when any one slot's symbol
    is rejected (`rejects`, per guard kind), and (q, sigma) goes to the reject
    state named by `guard_state` when the verifier declares it."""

    def matches(self, comm: tuple[str, ...]) -> bool:
        return any(self.rejects(slot, sym) for slot, sym in enumerate(comm[:len(self.slot_bases)]))

    def target(self, q: str, sigma: str) -> str | None:
        """The reject state `emit` moves (q, sigma) to; None where it has none."""
        name = guard_state(self.prefix, q, sigma)
        return name if name in self.known_states else None


@dataclass(frozen=True)
class TrackGuard(_GuardRule):
    """Rejects any reception that is not [sigma/#] with sigma in the slot's base set."""
    slot_bases: tuple[tuple[str, ...], ...]
    known_states: frozenset[str]
    prefix: ClassVar[str] = "rejt"
    kind: ClassVar[str] = "track-guard"

    def rejects(self, slot: int, symbol: str) -> bool:
        """Whether `symbol` received on `slot` (0-based) sends the whole reception here."""
        parsed = parse_track(symbol)
        return parsed is None or parsed[1] != BLANK or parsed[0] not in self.slot_bases[slot]

    def emit(self, q: str, sigma: str, comm: tuple[str, ...]):
        name = self.target(q, sigma)
        if name is None:
            raise MissingTransition(f"guard has no reject state for ({q!r}, {sigma!r})")
        return ((name, 1, comm, 1.0 + 0j),)


@dataclass(frozen=True)
class ForeignGuard(_GuardRule):
    """Rejects any reception with a symbol outside its slot's original alphabet."""
    slot_bases: tuple[tuple[str, ...], ...]
    known_states: frozenset[str]
    prefix: ClassVar[str] = "rejf"
    kind: ClassVar[str] = "foreign-guard"

    def rejects(self, slot: int, symbol: str) -> bool:
        """Whether `symbol` received on `slot` (0-based) sends the whole reception here."""
        return symbol not in self.slot_bases[slot]

    def emit(self, q: str, sigma: str, comm: tuple[str, ...]):
        name = self.target(q, sigma)
        if name is None:
            raise MissingTransition(f"guard has no reject state for ({q!r}, {sigma!r})")
        return ((name, 1, comm, 1.0 + 0j),)


# ---------------------------------------------------------------------------
# verifier / prover / protocol specs

RowKey = tuple[str, str, tuple[str, ...]]
Branch = tuple[str, int, tuple[str, ...], complex]


@dataclass(frozen=True)
class VerifierSpec:
    """Finite-automaton verifier with k communication cells.

    `rows` maps (state, input symbol, received tuple) to its branches
    (state', head move, sent tuple, weight). Missing rows are don't-care
    until a populated configuration needs one. `fallback` optionally covers
    whole families of receptions by rule.
    """
    mode: str
    states: tuple[str, ...]
    initial: str
    accept: frozenset[str]
    reject: frozenset[str]
    input_alphabet: tuple[str, ...]
    comm_alphabets: tuple[tuple[str, ...], ...]
    rows: Mapping[RowKey, tuple[Branch, ...]]
    fallback: TrackGuard | ForeignGuard | None = None

    @property
    def k(self) -> int:
        return len(self.comm_alphabets)

    def is_quantum(self) -> bool:
        return self.mode in QUANTUM_MODES

    def lookup(self, q: str, sigma: str, comm: tuple[str, ...]) -> tuple[Branch, ...]:
        row = self.rows.get((q, sigma, comm))
        if row is not None:
            return row
        if self.fallback is not None and self.fallback.matches(comm):
            return self.fallback.emit(q, sigma, comm)
        raise MissingTransition(f"verifier has no row for state {q!r}, symbol {sigma!r}, received {comm}")


@dataclass(frozen=True)
class ProverSpec:
    """One prover: its channel alphabet, private tape alphabet and size, and strategy."""
    index: int
    comm_alphabet: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    space: int
    strategy: object


@dataclass(frozen=True)
class ProtocolSpec:
    """A named protocol: verifier, provers, claimed thresholds, round cutoff."""
    name: str
    verifier: VerifierSpec
    provers: tuple[ProverSpec, ...]
    a: float
    b: float
    cutoff: int

    @property
    def k(self) -> int:
        return len(self.provers)


def validate_protocol(p: ProtocolSpec) -> None:
    """Structural validation; raises ValidationError with the first problem found."""
    v = p.verifier
    if v.mode not in ALL_MODES:
        raise ValidationError(f"unknown mode {v.mode!r}")
    if len(v.states) != len(set(v.states)):
        raise ValidationError("duplicate verifier states")
    state_set = set(v.states)
    if v.initial not in state_set:
        raise ValidationError(f"initial state {v.initial!r} not declared")
    if not v.accept <= state_set or not v.reject <= state_set:
        raise ValidationError("accept/reject sets mention undeclared states")
    if v.accept & v.reject:
        raise ValidationError("accept and reject sets overlap")
    for sym in v.input_alphabet:
        if sym in (BLANK, LEFT_END, RIGHT_END):
            raise ValidationError(f"input alphabet may not contain {sym!r}")
    if len(p.provers) != v.k:
        raise ValidationError(f"verifier has {v.k} communication cells but {len(p.provers)} provers")
    if v.fallback is not None and len(v.fallback.slot_bases) != v.k:
        raise ValidationError(f"{v.fallback.kind} has {len(v.fallback.slot_bases)} slot bases for {v.k} cells")
    for i, prover in enumerate(p.provers):
        if prover.index != i + 1:
            raise ValidationError(f"prover {i + 1} has index {prover.index}")
        if tuple(prover.comm_alphabet) != tuple(v.comm_alphabets[i]):
            raise ValidationError(f"prover {i + 1} communication alphabet differs from the verifier's")
        if BLANK not in prover.comm_alphabet:
            raise ValidationError(f"prover {i + 1} communication alphabet lacks {BLANK!r}")
        if BLANK not in prover.tape_alphabet:
            raise ValidationError(f"prover {i + 1} tape alphabet lacks {BLANK!r}")
        if prover.space < 0:
            raise ValidationError("negative prover space")
        if v.is_quantum():
            strat = prover.strategy
            if isinstance(strat, ClassicalTableStrategy) and not strat.is_injective():
                raise ValidationError(
                    f"prover {i + 1} table is not injective; wrap it before quantum use"
                )
    if not (0 < p.a <= 1 and 0 < p.b <= 1):
        raise ValidationError("thresholds must lie in (0, 1]")
    if p.cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    bad = row_fault(v)
    if bad is not None:
        raise ValidationError(bad[1])
    if v.mode in ONE_WAY_MODES and any(d != 1 for row in v.rows.values() for _, d, _, _ in row):
        raise ValidationError("one-way verifier must always move right")


def row_fault(v: VerifierSpec) -> tuple[RowKey, str] | None:
    """The first row that names an undeclared state or symbol, has a tuple of the
    wrong arity or moves other than -1, 0 or +1, with its fault; None if none does.

    Every validation and every write runs this, so the test is a few set
    operations over all rows at once; the rows are walked only to name a fault.
    The one-way rule is `validate_protocol`'s alone: a file may hold any mode.
    """
    rows = v.rows
    branches = [branch for row in rows.values() for branch in row]
    cells = [*map(itemgetter(2), rows), *map(itemgetter(2), branches)]
    states = set(v.states)
    full_input = {*v.input_alphabet, LEFT_END, RIGHT_END}
    if (states.issuperset(map(itemgetter(0), rows)) and states.issuperset(map(itemgetter(0), branches))
            and full_input.issuperset(map(itemgetter(1), rows))
            and {-1, 0, 1}.issuperset(map(itemgetter(1), branches)) and set(map(len, cells)) <= {v.k}
            and all(map(set.issuperset, map(set, v.comm_alphabets), zip(*cells)))):
        return None

    def cell_fault(cell: tuple[str, ...], noun: str, verb: str) -> str | None:
        if len(cell) != v.k:
            return f"row {noun} tuple has wrong arity"
        return next((f"row {verb} {sym!r} outside communication alphabet {i + 1}"
                     for i, sym in enumerate(cell) if sym not in v.comm_alphabets[i]), None)

    def faults(key: RowKey, row: tuple[Branch, ...]) -> Iterator[str | None]:
        q, sigma, comm = key
        yield f"row source state {q!r} not declared" if q not in states else None
        yield f"row input symbol {sigma!r} not declared" if sigma not in full_input else None
        yield cell_fault(comm, "received", "receives")
        for q2, d, out, _ in row:
            yield f"row target state {q2!r} not declared" if q2 not in states else None
            yield f"head move {d} invalid" if d not in (-1, 0, 1) else None
            yield cell_fault(out, "sent", "sends")

    for key, row in rows.items():
        fault = next(filter(None, faults(key, row)), None)
        if fault is not None:
            return key, fault
    return None


# ---------------------------------------------------------------------------
# well-formedness and normal-form checkers

@dataclass
class WellFormedReport:
    ok: bool
    violations: list[str]

    def __bool__(self) -> bool:
        return self.ok


def sum_targets(weighted: Iterable[tuple[Hashable, complex]]) -> dict[Hashable, complex]:
    """The weights of (target, weight) pairs summed per target, in first-seen order."""
    out: dict[Hashable, complex] = {}
    for target, w in weighted:
        out[target] = out.get(target, 0j) + w
    return out


def _row_vectors(v: VerifierSpec) -> dict[str, dict[RowKey, dict[tuple, complex]]]:
    """Rows grouped by input symbol, each as a sparse target vector (a one-branch row is its own)."""
    groups: dict[str, dict[RowKey, dict[tuple, complex]]] = {}
    for key, branches in v.rows.items():
        vec = ({branches[0][:3]: branches[0][3]} if len(branches) == 1
               else sum_targets(((q2, d, out), w) for q2, d, out, w in branches))
        groups.setdefault(key[1], {})[key] = vec
    return groups


def sparse_gram(vectors: Mapping[RowKey, dict[tuple, complex]]) -> dict[tuple[RowKey, RowKey], complex]:
    """All nonzero pairwise inner products, via a target-indexed inverted map.

    Pairs that share no target are orthogonal and never enumerated, which
    keeps the cost near-linear in the number of table entries.
    """
    by_target: dict[tuple, list[tuple[RowKey, complex]]] = {}
    for key, vec in vectors.items():
        for target, w in vec.items():
            by_target.setdefault(target, []).append((key, w))
    gram: dict[tuple[RowKey, RowKey], complex] = {}
    for entries in by_target.values():
        if len(entries) < 2:
            continue
        for i in range(len(entries)):
            ki, wi = entries[i]
            for j in range(i + 1, len(entries)):
                kj, wj = entries[j]
                pair = (ki, kj) if ki <= kj else (kj, ki)
                gram[pair] = gram.get(pair, 0j) + wi.conjugate() * wj
    return gram


def _orthonormal_violations(vectors: Mapping[RowKey, dict[tuple, complex]], noun: str) -> list[str]:
    """Each vector not of unit norm and each pair not orthogonal, named as `noun`s."""
    out = []
    for key, vec in vectors.items():
        norm = 0.0
        for w in vec.values():
            norm += (w * w.conjugate()).real
        if not abs(norm - 1.0) <= ORTHO_TOL:
            out.append(f"{noun} {key} has squared norm {norm:.12g}")
    for (ka, kb), ip in sparse_gram(vectors).items():
        if not abs(ip) <= ORTHO_TOL:
            out.append(f"{noun}s {ka} and {kb} have inner product {abs(ip):.12g}")
    return out


def check_well_formed(v: VerifierSpec) -> WellFormedReport:
    """Column orthonormality (quantum) or row stochasticity (classical).

    Quantum rows are grouped by input symbol; within each group every row
    vector must have unit norm and distinct rows must be orthogonal. Guard
    rows are injective echoes into fresh states by construction, so for them
    the checker only verifies that no explicit row targets a guard state.
    """
    violations: list[str] = []
    if v.is_quantum():
        for vectors in _row_vectors(v).values():
            violations += _orthonormal_violations(vectors, "row")
    else:
        for key, branches in v.rows.items():
            total = 0.0
            for (_, _, _, w) in branches:
                wc = complex(w)
                if not (abs(wc.imag) <= CLASSICAL_ROW_TOL and wc.real >= -CLASSICAL_ROW_TOL):
                    violations.append(f"row {key} has non-probabilistic weight {w}")
                total += wc.real
            if not abs(total - 1.0) <= CLASSICAL_ROW_TOL:
                violations.append(f"row {key} weights sum to {total:.12g}")
    if v.fallback is not None:
        guard_targets = v.fallback.known_states
        for key, branches in v.rows.items():
            for (q2, _, _, _) in branches:
                if q2 in guard_targets:
                    violations.append(f"row {key} targets guard state {q2!r}")
        if not guard_targets <= v.reject:
            violations.append("guard states must all be rejecting")
    return WellFormedReport(not violations, violations)


def restrictive_violations(v: VerifierSpec) -> list[str]:
    """Rows that break the two-branch discipline (at most 2 branches, unit mass)."""
    if not v.is_quantum():
        raise ValidationError("restrictive form only applies to quantum verifiers")
    out = []
    for key, branches in v.rows.items():
        if not 1 <= len(branches) <= 2:
            out.append(f"row {key} has {len(branches)} branches")
            continue
        mass = sum(abs(complex(w)) ** 2 for (_, _, _, w) in branches)
        if not abs(mass - 1.0) <= ORTHO_TOL:
            out.append(f"row {key} branch mass is {mass:.12g}")
    return out


def check_restrictive(v: VerifierSpec) -> bool:
    """True iff every row superposes at most two branches with unit total mass."""
    return not restrictive_violations(v)


def fair_coin_violations(v: VerifierSpec) -> list[str]:
    """Rows outside fair-coin normal form: 1 outcome at weight 1, or 2 at 1/2 each."""
    if v.is_quantum():
        raise ValidationError("fair-coin form only applies to classical verifiers")
    out = []
    for key, branches in v.rows.items():
        weights = sorted(complex(w).real for (_, _, _, w) in branches)
        if len(branches) == 1 and abs(weights[0] - 1.0) <= CLASSICAL_ROW_TOL:
            continue
        if (
            len(branches) == 2
            and abs(weights[0] - 0.5) <= CLASSICAL_ROW_TOL
            and abs(weights[1] - 0.5) <= CLASSICAL_ROW_TOL
        ):
            continue
        out.append(f"row {key} is not a fair coin: weights {weights}")
    return out


def check_prover_columns(prover: ProverSpec, step: int, tapes: Iterable[Tape]) -> WellFormedReport:
    """Enumerate a strategy's columns over given tapes and check orthonormality.

    Basis states outside the strategy's defined domain (MissingTransition)
    are skipped; the check covers the partial isometry the engine actually
    uses. Intended for tests and validation at small tape sizes.
    """
    vectors: dict[RowKey, dict[tuple, complex]] = {}
    for tape in tapes:
        for comm in prover.comm_alphabet:
            try:
                moves = prover.strategy.apply_quantum(step, comm, tape)
            except MissingTransition:
                continue
            vectors[(comm, tape)] = sum_targets(moves)  # type: ignore[index]
    violations = _orthonormal_violations(vectors, "column")
    return WellFormedReport(not violations, violations)
