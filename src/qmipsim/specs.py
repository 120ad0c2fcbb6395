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


def code_order(alphabet: Sequence[str]) -> tuple[str, ...]:
    """The alphabet listed by its fixed-width code: the symbol at index i has code i.

    The blank gets code 0; the other symbols follow in the alphabet's own
    order, so the table is deterministic for a fixed alphabet tuple.
    """
    n = len(alphabet)
    if n == 0:
        raise ValidationError("cannot encode an empty alphabet")
    if len(set(alphabet)) != n:
        raise ValidationError("alphabet has duplicate symbols")
    return tuple(sorted(alphabet, key=lambda sym: sym != BLANK))


def fixed_width_binary_encoding(alphabet: Sequence[str]) -> dict[str, str]:
    """Injective fixed-width bit codes, `code_order`'s indices written in binary.

    Width is ceil(log2(|alphabet|)) with a floor of one bit, so the blank
    gets the all-zero string.
    """
    ordered = code_order(alphabet)
    width = max(1, math.ceil(math.log2(max(len(ordered), 2))))
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


def symbol_xor(alphabet: Sequence[str]) -> Callable[[str, str], str]:
    """`xor_symbols` on `fixed_width_binary_encoding(alphabet)`, read off `code_order`.

    a XOR b is the symbol at index code[a] ^ code[b] of the code table; an
    index past the alphabet is an unused code, which `xor_symbols` reports.
    """
    by_code = code_order(alphabet)
    code = {sym: i for i, sym in enumerate(by_code)}

    def xor(a: str, b: str) -> str:
        c = code[a] ^ code[b]
        return by_code[c] if c < len(by_code) else xor_symbols(fixed_width_binary_encoding(alphabet), a, b)
    return xor


# ---------------------------------------------------------------------------
# prover strategies
#
# A strategy maps (step, received symbol, private tape) to replies. Steps are
# 1-based: step j is the prover's move at round j+1. Quantum application
# returns [( (reply, new tape), amplitude ), ...] and must be a partial
# isometry on the basis states it defines; states outside the defined domain
# raise MissingTransition. Strategies that log history do it at the
# step-indexed cell, so the write target is fresh on every reachable state
# and injectivity comes for free. Every such write, the wraps' history and
# stash included, is the one rule `_write_cell`: a blank cell past the inner
# cells, written by one slice-and-concatenate; only the eraser swaps its cell
# without the blank rule. A classical run moves a strategy by its one
# quantum move of amplitude 1 (`_classical_move`) and refuses any other.
#
# A strategy class may declare a `record` that its moves store but never read:
# "lower", its reception's lower track, stashed in a tape cell no later move
# reads, or "tape", its whole tape, which moves only append to. The engine
# merges histories that differ only in records before every move and cannot
# see a wrong declaration (`check_prover_columns` can), which gives wrong
# numbers without a fault. A subclass that reads its record sets `record = None`.

Tape = tuple[str, ...]
QuantumMove = list[tuple[tuple[str, Tape], complex]]


def strategy_label(strategy) -> str:
    """A strategy's name in reports and refusals: its `label`, else its `kind`, else its type's name."""
    for attr in ("label", "kind"):
        name = getattr(strategy, attr, None)
        if name is not None:
            return name
    return type(strategy).__name__


def _classical_move(strategy, step: int, comm: str, tape: Tape) -> tuple[str, Tape]:
    """A strategy's move in a classical run: its one `apply_quantum` move, whose amplitude must be 1.

    Each strategy class binds it as its own `apply_classical`, which the bench tracer patches per class.
    """
    moves = strategy.apply_quantum(step, comm, tape)
    if len(moves) == 1 and abs(moves[0][1] - 1) <= AMPLITUDE_TOL:
        return moves[0][0]
    name = strategy_label(strategy)
    if len(moves) != 1:
        raise ValidationError(f"strategy {name} branches; no classical form")
    raise ValidationError(f"strategy {name} moves with amplitude {moves[0][1]!r}, not 1; no classical form")


def _write_cell(tape: Tape, idx: int, symbol: str, *who: str, head: Tape = (), cut: int = 0) -> Tape:
    """`tape` with its first `cut` cells replaced by `head` and `symbol` in blank cell `idx`: the one blank-cell write.

    A blank cell past the `cut` inner cells takes one slice-and-concatenate. A fault names the writer by `who`
    joined with spaces. A negative `idx` is past the tape's left end, not a cell counted from its right end.
    """
    if len(head) == cut and cut <= idx < len(tape) and tape[idx] == BLANK:
        return head + tape[cut:idx] + (symbol,) + tape[idx + 1:]
    tape = head + tape[cut:]
    if not 0 <= idx < len(tape):
        raise SpaceExceeded(f"{' '.join(who)}: tape has {len(tape)} cells, step needs cell {idx}")
    if tape[idx] != BLANK:
        raise MissingTransition(f"{' '.join(who)}: history cell {idx} already holds {tape[idx]!r}")
    return tape[:idx] + (symbol,) + tape[idx + 1:]


def log_reception(tape: Tape, step: int, comm: str, *who: str) -> Tape:
    """`tape` with the symbol received at `step` logged in its step-indexed cell, `step - 1`.

    The logging rule of `LoggedReplyStrategy` and `DerandomizedStrategy`. The
    adversary sweep rests on it: a logged reply's new tape is fixed by the
    prover's cell and tape, whatever the reply.
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

    apply_classical = _classical_move


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
        if self.work < 0:
            raise ValidationError(f"prover table work must be at least 0, got {self.work}")
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
        return len({(recv, image) for (recv, _), image in self.rows.items()}) == len(self.rows)

    def _lookup(self, comm: str, tape: Tape) -> tuple[str, Tape]:
        key = (comm, tape[:self.work])
        row = self.rows.get(key)
        if row is None:
            raise MissingTransition(f"prover table has no row for {key}")
        return row

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        reply, new_work = self._lookup(comm, tape)
        return [((reply, new_work + tape[self.work:]), 1.0 + 0j)]

    apply_classical = _classical_move


@dataclass(frozen=True)
class ReversibleWrapStrategy:
    """A classical table made injective by logging each received symbol.

    The wrapped map additionally writes the received symbol at history cell
    hist_offset + step - 1, past the table's work. Replies are identical to the inner table's.
    """
    inner: ClassicalTableStrategy
    hist_offset: int
    kind: ClassVar[str] = "reversible-table"

    def __post_init__(self):
        if self.hist_offset < 0:
            raise ValidationError(f"reversible wrap needs a history offset of at least 0, got {self.hist_offset}")
        if self.hist_offset < self.inner.work:
            raise ValidationError(f"reversible wrap needs a history offset of at least {self.inner.work}, "
                                  f"its table's work, got {self.hist_offset}")

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        reply, work = self.inner._lookup(comm, tape)
        idx = self.hist_offset + step - 1
        return [((reply, _write_cell(tape, idx, comm, "reversible wrap", head=work, cut=self.inner.work)), 1.0 + 0j)]

    apply_classical = _classical_move


@dataclass(frozen=True)
class TrackWrapStrategy:
    """Adapter for mask-channel protocols: unpack [symbol/mask], run the inner
    strategy on the upper track, stash the mask at the step-indexed cell, and
    reply [inner reply/#]."""
    inner: object
    mask_offset: int
    kind: ClassVar[str] = "track-wrap"
    record: ClassVar[str | None] = "lower"

    def __post_init__(self):
        if self.mask_offset < 0:
            raise ValidationError(f"track wrap needs a mask offset of at least 0, got {self.mask_offset}")

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        parsed = parse_track(comm)
        if parsed is None:
            raise MissingTransition(f"track wrap received non-track symbol {comm!r}")
        upper, lower = parsed
        offset, idx = self.mask_offset, self.mask_offset + step - 1
        out: QuantumMove = []  # a loop: on Python 3.11 a comprehension builds a closure per call
        for (reply, inner_tape), amp in self.inner.apply_quantum(step, upper, tape[:offset]):
            logged = _write_cell(tape, idx, lower, "track wrap", head=inner_tape, cut=offset)
            out.append(((track(reply, BLANK), logged), amp))
        return out

    apply_classical = _classical_move


@dataclass(frozen=True)
class UnitaryTableStrategy:
    """Explicit per-step quantum tables over (received symbol, work cells).

    `steps` maps a step index (or None for any step) to a column table
    {(recv, work): [((reply, new work), amplitude), ...]}.
    """
    work: int
    steps: Mapping[int | None, Mapping[tuple[str, Tape], QuantumMove]]
    kind: ClassVar[str] = "unitary-table"

    def __post_init__(self):
        if self.work < 0:
            raise ValidationError(f"unitary table work must be at least 0, got {self.work}")

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        table = self.steps.get(step, self.steps.get(None))
        if table is None:
            raise MissingTransition(f"unitary table has no step {step}")
        key = (comm, tape[:self.work])
        if key not in table:
            raise MissingTransition(f"unitary table step {step} has no column for {key}")
        return [((reply, work + tape[self.work:]), amp) for (reply, work), amp in table[key]]

    apply_classical = _classical_move


@dataclass(frozen=True)
class LoggedReplyStrategy:
    """Reply as a function of (step, received symbol), logging the received
    symbol at the step-indexed cell. Any reply function yields a valid partial
    isometry because the log keeps distinct inputs distinct. Used heavily by
    adversary families (constants, echoes, mask probes, rotations)."""
    label: str
    fn: Callable[[int, str], list[tuple[str, complex]]] = field(compare=False)
    kind: ClassVar[str] = "logged-reply"
    record: ClassVar[str | None] = "tape"

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        logged = log_reception(tape, step, comm, "strategy", self.label)
        return [((reply, logged), amp) for reply, amp in self.fn(step, comm)]

    apply_classical = _classical_move


@dataclass(frozen=True)
class FixedReplies:
    """A reply function that ignores the received symbol: `replies[step - 1]`
    with weight 1, and the last reply past the end. Since it is data, not a
    closure, the adversary sweep asks it once per step, not once per
    reception."""
    replies: tuple[str, ...]

    def __post_init__(self):
        if not self.replies:
            raise ValidationError("FixedReplies needs at least one reply")

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

    def apply_quantum(self, step: int, comm: str, tape: Tape) -> QuantumMove:
        key = (step, comm, tape)
        if key not in self.choices:
            raise MissingTransition(f"derandomized strategy has no choice for {key}")
        return [((self.choices[key], log_reception(tape, step, comm, "derandomized strategy")), 1.0 + 0j)]

    apply_classical = _classical_move


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


@dataclass(frozen=True)
class _GuardRule:
    """The one guard rule. Slot i accepts its base symbols as an honest prover
    sends them (`sent`, per guard kind); a reception matches when any slot's
    symbol is not accepted, and (q, sigma) goes to the reject state named by
    `guard_state` when the verifier declares it."""
    slot_bases: tuple[tuple[str, ...], ...]
    known_states: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "accepted", tuple(frozenset(map(self.sent, base)) for base in self.slot_bases))

    def rejects(self, slot: int, symbol: str) -> bool:
        """Whether `symbol` received on `slot` (0-based) sends the whole reception here."""
        return symbol not in self.accepted[slot]

    def matches(self, comm: tuple[str, ...]) -> bool:
        return any(sym not in ok for ok, sym in zip(self.accepted, comm))

    def target(self, q: str, sigma: str) -> str | None:
        """The reject state `emit` moves (q, sigma) to; None where it has none."""
        name = guard_state(self.prefix, q, sigma)
        return name if name in self.known_states else None

    def emit(self, q: str, sigma: str, comm: tuple[str, ...]):
        name = self.target(q, sigma)
        if name is None:
            raise MissingTransition(f"guard has no reject state for ({q!r}, {sigma!r})")
        return ((name, 1, comm, 1.0 + 0j),)


@dataclass(frozen=True)
class TrackGuard(_GuardRule):
    """Accepts only [sigma/#] with sigma in the slot's base set, as `TrackWrapStrategy` replies."""
    prefix: ClassVar[str] = "rejt"
    kind: ClassVar[str] = "track-guard"
    sent = staticmethod(functools.partial(track, lower=BLANK))
    emit = _GuardRule.emit  # one per class: the bench tracer patches `emit` on each guard class


@dataclass(frozen=True)
class ForeignGuard(_GuardRule):
    """Accepts only the symbols of its slot's original alphabet."""
    prefix: ClassVar[str] = "rejf"
    kind: ClassVar[str] = "foreign-guard"
    sent = staticmethod(lambda symbol: symbol)
    emit = _GuardRule.emit  # one per class: the bench tracer patches `emit` on each guard class


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
    whole families of receptions by rule. `column_cache` keeps the engine's
    columns per scanned symbol across runs and inputs, so `rows` must not
    change in place after a run: `dataclasses.replace` builds a changed verifier.
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
    column_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    state_set = set(v.states)
    if len(v.states) != len(state_set):
        dupes = sorted({q for q in v.states if v.states.count(q) > 1})
        raise ValidationError(f"duplicate verifier states {dupes}")
    if v.initial not in state_set:
        raise ValidationError(f"initial state {v.initial!r} not declared")
    undeclared = (v.accept | v.reject) - state_set
    if undeclared:
        raise ValidationError(f"accept/reject sets mention undeclared states {sorted(undeclared)}")
    if v.accept & v.reject:
        raise ValidationError(f"accept and reject sets overlap in {sorted(v.accept & v.reject)}")
    for sym in v.input_alphabet:
        if sym in (BLANK, LEFT_END, RIGHT_END):
            raise ValidationError(f"input alphabet may not contain {sym!r}")
        if len(sym) != 1:  # the input tape holds one character per cell
            raise ValidationError(f"input symbol {sym!r} is not one character")
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
            raise ValidationError(f"prover {i + 1} has negative space {prover.space}")
        if v.is_quantum():
            strat = prover.strategy
            if isinstance(strat, ClassicalTableStrategy) and not strat.is_injective():
                raise ValidationError(
                    f"prover {i + 1} table is not injective; wrap it before quantum use"
                )
    if not (0 < p.a <= 1 and 0 < p.b <= 1):
        raise ValidationError(f"thresholds must lie in (0, 1], got a={p.a} and b={p.b}")
    if p.cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    bad = row_fault(v)
    if bad is not None:
        raise ValidationError(bad[1])
    if v.mode in ONE_WAY_MODES:
        if any(d != 1 for row in v.rows.values() for _, d, _, _ in row):
            raise ValidationError("one-way verifier must always move right")
        # one pass: the head would wrap past the right endmarker into another sweep of the input
        halting = v.accept | v.reject
        if any(symbol == RIGHT_END and q2 not in halting for (_, symbol, _), row in v.rows.items() for q2, *_ in row):
            raise ValidationError(f"one-way verifier must halt at {RIGHT_END!r}")


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


def _two_cell_collisions(groups: dict[str, dict[RowKey, dict[tuple, complex]]]) -> list[str]:
    """The endmarker rows among `_row_vectors` groups that move +1 and -1 to one (state, sent).

    On the two-cell tape of "" both moves reach the same cell, so the two
    branches meet in one configuration and the run faults there.
    """
    out = []
    for sigma in (LEFT_END, RIGHT_END):
        for key, vec in groups.get(sigma, {}).items():
            if len(vec) > 1:
                out += [
                    f"row {key} moves to {(q2, sent)} with head moves +1 and -1, "
                    'which collide on the two-cell tape of ""'
                    for q2, d, sent in vec if d == 1 and (q2, -1, sent) in vec
                ]
    return out


def check_well_formed(v: VerifierSpec) -> WellFormedReport:
    """Column orthonormality (quantum) or row stochasticity (classical).

    Quantum rows are grouped by input symbol; within each group every row
    vector must have unit norm and distinct rows must be orthogonal. A
    quantum endmarker row must also not send branches with head moves +1 and
    -1 to one (state, sent), which the engine faults on for input "". Guard
    rows are injective echoes into fresh states by construction, so for them
    the checker only verifies that no explicit row targets a guard state.
    """
    violations: list[str] = []
    if v.is_quantum():
        groups = _row_vectors(v)
        for vectors in groups.values():
            violations += _orthonormal_violations(vectors, "row")
        violations += _two_cell_collisions(groups)
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
    """Enumerate a strategy's columns over given tapes and check orthonormality and its `record`.

    Basis states outside the strategy's domain (MissingTransition, or SpaceExceeded on a tape
    too short for the step) are skipped: the check covers the partial isometry the engine uses.
    A state must move as the first that differs from it only in a declared record: equal replies
    and amplitudes, new tapes that differ only where each holds its own lower track.
    """
    record = getattr(prover.strategy, "record", None)
    vectors: dict[RowKey, dict[tuple, complex]] = {}
    firsts: dict = {}  # per state without its record: the first such state, its lower track, its moves
    unlike = []
    for tape in tapes:
        for comm in prover.comm_alphabet:
            try:
                moves = prover.strategy.apply_quantum(step, comm, tape)
            except (MissingTransition, SpaceExceeded):
                continue
            vectors[(comm, tape)] = sum_targets(moves)  # type: ignore[index]
            upper, mine = (parse_track(comm) or (None, None)) if record == "lower" else (comm, None)
            if record not in ("lower", "tape") or upper is None:
                continue
            rest = (upper, tape if record == "lower" else None)
            first, lower, alike = firsts.setdefault(rest, ((comm, tape), mine, moves))
            if len(moves) != len(alike) or not all(
                reply == other and abs(amp - other_amp) <= AMPLITUDE_TOL
                and all(a == b or (a, b) == (mine, lower) for a, b in zip(new, old) if mine is not None)
                for ((reply, new), amp), ((other, old), other_amp) in zip(moves, alike)
            ):
                unlike.append(f"column {(comm, tape)} moves unlike {first}, which differs only in its {record} record")
    violations = _orthonormal_violations(vectors, "column") + unlike
    return WellFormedReport(not violations, violations)
