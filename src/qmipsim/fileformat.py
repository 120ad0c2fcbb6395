"""Plain-text protocol files.

Line-based, strict: unknown keys, malformed lines, and inconsistent counts
all raise SpecFileError with the offending line number. Comments start with
';' (never '#', which is the blank symbol). Weights use exact tokens where
one exists (1, -1, 3/4, 1/sqrt2, ...) and full-precision decimals otherwise,
chosen so that serialize-then-parse reproduces the object bit for bit.

    qmip 1
    name = coinflip
    mode = 1pfa
    provers = 1
    a = 1/2
    b = 1/2
    cutoff = 2

    [verifier]
    states = q0 acc rej
    ...
    rule = q0 ¢ # -> 1/2 acc +1 # , 1/2 rej +1 #

    [prover 1]
    comm = #
    tape = #
    space = 0
    strategy = table
    work = 0
    row = # -> #
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import inf, isfinite, sqrt

from .errors import SpecFileError
from .specs import (
    ClassicalTableStrategy,
    DerandomizedStrategy,
    EraserStrategy,
    ForeignGuard,
    ProtocolSpec,
    ProverSpec,
    ReversibleWrapStrategy,
    TrackGuard,
    TrackWrapStrategy,
    UnitaryTableStrategy,
    VerifierSpec,
    guard_states,
    row_fault,
)

FORMAT_HEADER = "qmip 1"

_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^[+-]?\d+/\d+$")
_SQRT_RE = re.compile(r"^([+-]?)1/sqrt(\d+)$")


# Protocols repeat a handful of weights (1, 1/2, 1/sqrt2, ...) thousands of
# times, so both directions remember what they computed per distinct value.
# The caches are bounded and keep results only: a bad token or an
# unserializable weight raises again on every call. The cached parser's
# errors carry no location; `parse_weight` prefixes its caller's `where`, and
# `_parse_rule`, which runs per rule line, builds its prefix only on error.
_WEIGHT_CACHE_SIZE = 4096


def parse_weight(token: str, where: str = "") -> complex:
    try:
        return _weight_value(token)
    except SpecFileError as e:
        raise SpecFileError(f"{where}{e}") from None


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _weight_value(token: str) -> complex:
    """The token's value; a SpecFileError unless it is a finite number that fits a float."""
    try:
        if _INT_RE.match(token):
            value = float(int(token))
        elif _FRAC_RE.match(token):
            num, den = map(int, token.split("/"))
            if den == 0:
                raise SpecFileError(f"zero denominator in weight {token!r}")
            value = num / den
        elif m := _SQRT_RE.match(token):
            n = int(m.group(2))
            if n == 0:
                raise SpecFileError(f"zero under the root in weight {token!r}")
            value = (-1.0 if m.group(1) == "-" else 1.0) / sqrt(n)
        else:
            value = float(token)
    except OverflowError:
        value = inf
    except ValueError:
        raise SpecFileError(f"bad weight token {token!r}") from None
    if not isfinite(value):
        raise SpecFileError(f"weight {token!r} is not a finite number")
    return complex(value)


def serialize_weight(w: complex) -> str:
    return _weight_token(complex(w))


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _weight_token(w: complex) -> str:
    """The shortest token that parses back to exactly w (+0.0 and -0.0 give "0")."""
    if w.imag != 0.0:
        raise SpecFileError(f"cannot serialize complex weight {w!r}")
    value = w.real
    if not isfinite(value):
        raise SpecFileError(f"cannot serialize weight {value!r}: not a finite number")
    frac = Fraction(value).limit_denominator(64)
    if float(frac) == value:
        token = str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
        if parse_weight(token) == w:
            return token
    # 1/sqrtn for 1 <= n <= 65536 lies in [2**-8, 1]; squaring far tinier
    # values underflows, and 1/value**2 would divide by zero or overflow
    if 2 ** -9 <= abs(value) <= 2:
        n = round(1.0 / (value * value))
        if 1 <= n <= 65536:
            token = ("-" if value < 0 else "") + f"1/sqrt{n}"
            if parse_weight(token) == w:
                return token
    return repr(value)


_SYNTAX = frozenset({"|", "->", ","})


def _check_token(token: str, what: str) -> str:
    if not token or token.split() != [token]:
        raise SpecFileError(f"{what} {token!r} contains whitespace or is empty")
    if token in _SYNTAX:
        raise SpecFileError(f"{what} {token!r} collides with file syntax")
    return token


def _symbols(symbols, what: str = "symbol") -> str:
    """The symbols as one space-separated field that reads back as exactly these symbols."""
    field = " ".join(symbols)
    # split() yields no empty or spaced token, so this equality holds only for clean tokens
    if field.split() != list(symbols) or not _SYNTAX.isdisjoint(symbols):
        for s in symbols:
            _check_token(s, what)
    return field


def _side(symbol: str, cells) -> str:
    """'symbol' or 'symbol | cells', as strategy lines write a reply or reception."""
    return _check_token(symbol, "symbol") + (" | " + _symbols(cells) if cells else "")


# Each wrap's file name, class and offset field. A wrap line lists its wraps innermost first.
_WRAPS = {"reversible": (ReversibleWrapStrategy, "hist_offset"), "masked": (TrackWrapStrategy, "mask_offset")}


# ---------------------------------------------------------------------------
# parsing

class _Section:
    """One section's key/value lines by key, with the keys read so far."""

    def __init__(self, label: str = ""):
        self.label = label
        self.by_key: dict[str, list[tuple[int, str]]] = {}
        self.used: set[str] = set()

    def one(self, key: str, required: bool = True) -> str | None:
        hits = self.by_key.get(key, ())
        if len(hits) > 1:
            raise SpecFileError(f"line {hits[1][0]}: duplicate key {key!r} in {self.label}")
        if not hits:
            if required:
                raise SpecFileError(f"{self.label} is missing key {key!r}")
            return None
        self.used.add(key)
        return hits[0][1]

    def many(self, key: str) -> list[tuple[int, str]]:
        self.used.add(key)
        return self.by_key.get(key, [])

    def check_no_strays(self) -> None:
        # keys sit in the order of their first lines, so the first unread key is the earliest
        for key, hits in self.by_key.items():
            if key not in self.used:
                raise SpecFileError(f"line {hits[0][0]}: unknown key {key!r} in {self.label}")


def _sections(text: str) -> tuple[_Section, list[tuple[int, str, _Section]]]:
    """The header section and each [name] section with its line, read in one pass."""
    top = current = None
    sections = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == ";":
            continue
        if current is None:
            if line != FORMAT_HEADER:
                raise SpecFileError(f"line {lineno}: expected {FORMAT_HEADER!r}, got {line!r}")
            top = current = _Section("header")
            continue
        if line[0] == "[" and line[-1] == "]":
            current = _Section()
            sections.append((lineno, line[1:-1].strip(), current))
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise SpecFileError(f"line {lineno}: expected key = value, got {line!r}")
        current.by_key.setdefault(key.strip(), []).append((lineno, value.strip()))
    if top is None:
        raise SpecFileError(f"empty file; expected {FORMAT_HEADER!r}")
    return top, sections


def _tokens(value: str) -> tuple[str, ...]:
    return tuple(value.split())


def _parse_int(value: str, where: str) -> int:
    if not _INT_RE.match(value):
        raise SpecFileError(f"{where}: expected an integer, got {value!r}")
    return int(value)


_MOVES = {"+1": 1, "-1": -1, "0": 0}
_MOVE_TOKENS = {d: token for token, d in _MOVES.items()}


def _split_arrow(lineno: int, value: str, what: str) -> tuple[str, str]:
    """The two sides of a `what` line around its one ' -> '."""
    head, arrow, body = value.partition(" -> ")
    if not arrow or " -> " in body:
        raise SpecFileError(f"line {lineno}: {what} needs exactly one ' -> '")
    return head, body


def _put(table: dict, key, value, lineno: int, what: str) -> None:
    """table[key] = value, refusing a second `what` line for the same key."""
    if key in table:
        raise SpecFileError(f"line {lineno}: duplicate {what} for {key}")
    table[key] = value


def _sized(cells: tuple[str, ...], n: int, lineno: int, what: str) -> tuple[str, ...]:
    """cells, refusing a `what` whose length is not n."""
    if len(cells) != n:
        raise SpecFileError(f"line {lineno}: {what} must have length {n}")
    return cells


def _parse_rule(lineno: int, value: str, k: int):
    head, body = _split_arrow(lineno, value, "rule")
    left = head.split()
    if len(left) != 2 + k:
        raise SpecFileError(f"line {lineno}: rule head needs state, symbol, and {k} received symbols")
    key = (left[0], left[1], tuple(left[2:]))
    branches = []
    for chunk in body.split(" , "):
        toks = chunk.split()
        if len(toks) != 3 + k:
            raise SpecFileError(f"line {lineno}: branch needs weight, state, move, and {k} sent symbols")
        try:
            w = _weight_value(toks[0])
        except SpecFileError as e:
            raise SpecFileError(f"line {lineno}: {e}") from None
        d = _MOVES.get(toks[2])
        if d is None:
            raise SpecFileError(f"line {lineno}: bad head move {toks[2]!r}")
        branches.append((toks[1], d, tuple(toks[3:]), w))
    return key, tuple(branches)


def _split_side(lineno: int, side: str, what: str) -> tuple[str, tuple[str, ...]]:
    chunks = side.split(" | ")
    if len(chunks) == 1:
        toks = chunks[0].split()
        if len(toks) != 1:
            raise SpecFileError(f"line {lineno}: {what} needs 'symbol' or 'symbol | cells'")
        return toks[0], ()
    if len(chunks) != 2:
        raise SpecFileError(f"line {lineno}: {what} has too many '|'")
    head = chunks[0].split()
    if len(head) != 1:
        raise SpecFileError(f"line {lineno}: {what} needs one symbol before '|'")
    return head[0], tuple(chunks[1].split())


def _split_stepped(lineno: int, side: str, what: str) -> tuple[str, str, tuple[str, ...]]:
    """'step symbol' or 'step symbol | cells', as urow and choice heads write a reception."""
    parts = side.split(None, 1)
    if len(parts) != 2:
        raise SpecFileError(f"line {lineno}: {what} needs step and symbol")
    return (parts[0], *_split_side(lineno, parts[1], what))


def _parse_work(sec: _Section) -> int:
    work = _parse_int(sec.one("work"), sec.label)
    if work < 0:
        raise SpecFileError(f"{sec.label}: work must be at least 0, got {work}")
    return work


def _parse_strategy(sec: _Section, space: int):
    kind = sec.one("strategy")
    if kind == "eraser":
        strategy: object = EraserStrategy()
    elif kind == "table":
        work = _parse_work(sec)
        rows = {}
        for lineno, value in sec.many("row"):
            source, target = _split_arrow(lineno, value, "row")
            recv, cells = _split_side(lineno, source, "row source")
            reply, new_cells = _split_side(lineno, target, "row target")
            _put(rows, (recv, _sized(cells, work, lineno, "row work cells")),
                 (reply, _sized(new_cells, work, lineno, "row work cells")), lineno, "row")
        strategy = ClassicalTableStrategy(work=work, rows=rows)
    elif kind == "unitary":
        work = _parse_work(sec)
        steps: dict[int | None, dict] = {}
        for lineno, value in sec.many("urow"):
            head, body = _split_arrow(lineno, value, "urow")
            step_tok, recv, cells = _split_stepped(lineno, head, "urow head")
            step = None if step_tok == "*" else _parse_int(step_tok, f"line {lineno}")
            _sized(cells, work, lineno, "urow work cells")
            moves = []
            for chunk in body.split(" , "):
                amp_tok, _, rest = chunk.strip().partition(" ")
                amp = parse_weight(amp_tok, f"line {lineno}: ")
                reply, new_cells = _split_side(lineno, rest, "urow target")
                moves.append(((reply, _sized(new_cells, work, lineno, "urow work cells")), amp))
            _put(steps.setdefault(step, {}), (recv, cells), moves, lineno, "urow")
        strategy = UnitaryTableStrategy(work=work, steps=steps)
    elif kind == "choices":
        choices = {}
        for lineno, value in sec.many("choice"):
            head, reply = _split_arrow(lineno, value, "choice")
            if " | " not in head:
                raise SpecFileError(f"line {lineno}: choice head needs 'step symbol | tape'")
            step_tok, recv, tape = _split_stepped(lineno, head, "choice head")
            step = _parse_int(step_tok, f"line {lineno}")
            _sized(tape, space, lineno, "choice tape")
            reply = reply.strip()
            if len(reply.split()) != 1:
                raise SpecFileError(f"line {lineno}: choice target must be one symbol")
            _put(choices, (step, recv, tape), reply, lineno, "choice")
        strategy = DerandomizedStrategy(choices=choices)
    else:
        raise SpecFileError(f"{sec.label}: unknown strategy {kind!r}")

    for item in (sec.one("wrap", required=False) or "").split():
        name, _, offset = item.partition(":")
        if not _INT_RE.match(offset):
            raise SpecFileError(f"{sec.label}: wrap item {item!r} needs name:offset")
        if offset[0] in "+-":
            raise SpecFileError(f"{sec.label}: wrap item {item!r} has a signed offset; write the cell index")
        if name not in _WRAPS:
            raise SpecFileError(f"{sec.label}: unknown wrap {name!r}")
        cls, field = _WRAPS[name]
        if cls is ReversibleWrapStrategy and not isinstance(strategy, ClassicalTableStrategy):
            raise SpecFileError(f"{sec.label}: {name} wrap needs a plain table inside")
        strategy = cls(inner=strategy, **{field: int(offset)})
    return strategy


def parse_protocol(text: str) -> ProtocolSpec:
    top, sections = _sections(text)
    # per parse: transformed protocols repeat one long alphabet field on up to six lines
    tokens = lru_cache(maxsize=None)(_tokens)
    name = top.one("name")
    mode = top.one("mode")
    k = _parse_int(top.one("provers"), "header")
    if k < 0:
        raise SpecFileError(f"header: provers must be at least 0, got {k}")
    a = parse_weight(top.one("a"), "threshold a: ").real
    b = parse_weight(top.one("b"), "threshold b: ").real
    cutoff = _parse_int(top.one("cutoff"), "header")
    top.check_no_strays()

    verifier_sec = None
    prover_secs: dict[int, _Section] = {}
    for lineno, secname, sec in sections:
        if secname == "verifier":
            if verifier_sec is not None:
                raise SpecFileError(f"line {lineno}: duplicate [verifier] section")
            sec.label = "[verifier]"
            verifier_sec = sec
        elif secname.startswith("prover "):
            idx = _parse_int(secname[len("prover "):], f"line {lineno}")
            if idx in prover_secs:
                raise SpecFileError(f"line {lineno}: duplicate [prover {idx}] section")
            sec.label = f"[prover {idx}]"
            prover_secs[idx] = sec
        else:
            raise SpecFileError(f"line {lineno}: unknown section [{secname}]")
    if verifier_sec is None:
        raise SpecFileError("missing [verifier] section")
    if sorted(prover_secs) != list(range(1, k + 1)):
        raise SpecFileError(f"expected prover sections 1..{k}, got {sorted(prover_secs)}")

    states = tokens(verifier_sec.one("states"))
    initial = verifier_sec.one("initial")
    accept = frozenset(tokens(verifier_sec.one("accept") or ""))
    reject = frozenset(tokens(verifier_sec.one("reject") or ""))
    input_alphabet = tokens(verifier_sec.one("input", required=False) or "")
    comm_alphabets = []
    for i in range(1, k + 1):
        comm_alphabets.append(tokens(verifier_sec.one(f"comm-{i}")))
    rows = {}
    for lineno, value in verifier_sec.many("rule"):
        _put(rows, *_parse_rule(lineno, value, k), lineno, "rule")

    fallback = None
    fb = verifier_sec.one("fallback", required=False)
    if fb:
        bases = []
        for i in range(1, k + 1):
            base = verifier_sec.one(f"guard-base-{i}")
            bases.append(tokens(base))
        cls = {g.kind: g for g in (TrackGuard, ForeignGuard)}.get(fb)
        if cls is None:
            raise SpecFileError(f"unknown fallback {fb!r}")
        minted = frozenset(guard_states(cls.prefix, rows))
        missing = minted - set(states)
        if missing:
            raise SpecFileError(f"fallback states not declared: {sorted(missing)}")
        fallback = cls(slot_bases=tuple(bases), known_states=minted)
    verifier_sec.check_no_strays()

    verifier = VerifierSpec(
        mode=mode,
        states=states,
        initial=initial,
        accept=accept,
        reject=reject,
        input_alphabet=input_alphabet,
        comm_alphabets=tuple(comm_alphabets),
        rows=rows,
        fallback=fallback,
    )

    provers = []
    for i in range(1, k + 1):
        sec = prover_secs[i]
        comm = tokens(sec.one("comm"))
        tape = tokens(sec.one("tape"))
        space = _parse_int(sec.one("space"), sec.label)
        strategy = _parse_strategy(sec, space)
        sec.check_no_strays()
        provers.append(ProverSpec(index=i, comm_alphabet=comm, tape_alphabet=tape, space=space, strategy=strategy))

    return ProtocolSpec(
        name=name,
        verifier=verifier,
        provers=tuple(provers),
        a=a,
        b=b,
        cutoff=cutoff,
    )


# ---------------------------------------------------------------------------
# serialization

def _strategy_lines(strategy, space: int) -> list[str]:
    wraps = []
    while True:
        for name, (cls, field) in _WRAPS.items():
            if isinstance(strategy, cls):
                wraps.append(f"{name}:{getattr(strategy, field)}")
                strategy = strategy.inner
                break
        else:
            break
    wraps.reverse()

    lines = []
    if isinstance(strategy, EraserStrategy):
        lines.append("strategy = eraser")
    elif isinstance(strategy, ClassicalTableStrategy):
        lines.append("strategy = table")
        lines.append(f"work = {strategy.work}")
        for (recv, cells), (reply, new_cells) in strategy.rows.items():
            lines.append(f"row = {_side(recv, cells)} -> {_side(reply, new_cells)}")
    elif isinstance(strategy, UnitaryTableStrategy):
        lines.append("strategy = unitary")
        lines.append(f"work = {strategy.work}")
        for step, table in strategy.steps.items():
            step_tok = "*" if step is None else str(step)
            for (recv, cells), moves in table.items():
                chunks = (f"{serialize_weight(amp)} {_side(*target)}" for target, amp in moves)
                lines.append(f"urow = {step_tok} {_side(recv, cells)} -> " + " , ".join(chunks))
    elif isinstance(strategy, DerandomizedStrategy):
        lines.append("strategy = choices")
        for (step, recv, tape), reply in strategy.choices.items():
            if len(tape) != space:
                raise SpecFileError("choice tape length disagrees with prover space")
            head = f"{step} {_check_token(recv, 'symbol')} | {_symbols(tape)}"
            lines.append(f"choice = {head} -> {_check_token(reply, 'symbol')}")
    else:
        raise SpecFileError(f"strategy kind {getattr(strategy, 'kind', type(strategy).__name__)!r} "
                            "has no file form")
    if wraps:
        lines.append("wrap = " + " ".join(wraps))
    return lines


def serialize_protocol(p: ProtocolSpec) -> str:
    """The file text of p, refusing any symbol, state, name or mode that would not read back as itself."""
    v = p.verifier
    # per write: transformed protocols repeat one long alphabet on up to six lines
    fields = lru_cache(maxsize=None)(_symbols)
    out = [FORMAT_HEADER, f"name = {_check_token(p.name, 'name')}", f"mode = {_check_token(v.mode, 'mode')}",
           f"provers = {p.k}", f"a = {serialize_weight(p.a)}", f"b = {serialize_weight(p.b)}",
           f"cutoff = {p.cutoff}", "", "[verifier]"]
    out.append("states = " + fields(v.states, "state"))
    named = {v.initial, *v.accept, *v.reject}
    if not named.issubset(v.states):
        raise SpecFileError(f"initial or halting states {sorted(named - set(v.states))} are not declared")
    out.append(f"initial = {v.initial}")
    out.append("accept = " + " ".join(sorted(v.accept)))
    out.append("reject = " + " ".join(sorted(v.reject)))
    out.append("input = " + fields(v.input_alphabet, "symbol"))
    for i, alphabet in enumerate(v.comm_alphabets, start=1):
        out.append(f"comm-{i} = " + fields(alphabet, "symbol"))
    bad = row_fault(v)
    if bad is not None:
        raise SpecFileError(f"rule {bad[0]!r} names an undeclared state or symbol, or a bad head move: {bad[1]}")
    for (q, sigma, comm), branches in v.rows.items():
        chunks = []
        for (q2, d, sent, w) in branches:
            chunks.append(f"{_weight_token(w)} {q2} {_MOVE_TOKENS[d]} " + " ".join(sent))
        out.append(f"rule = {q} {sigma} " + " ".join(comm) + " -> " + " , ".join(chunks))
    if v.fallback is not None:
        if len(v.fallback.slot_bases) != p.k:
            raise SpecFileError(f"{v.fallback.kind} has {len(v.fallback.slot_bases)} slot bases for {p.k} provers")
        out.append(f"fallback = {v.fallback.kind}")
        for i, base in enumerate(v.fallback.slot_bases, start=1):
            out.append(f"guard-base-{i} = " + fields(base, "symbol"))
    for prover in p.provers:
        out.append("")
        out.append(f"[prover {prover.index}]")
        out.append("comm = " + fields(prover.comm_alphabet, "symbol"))
        out.append("tape = " + fields(prover.tape_alphabet, "symbol"))
        out.append(f"space = {prover.space}")
        out.extend(_strategy_lines(prover.strategy, prover.space))
    return "\n".join(out) + "\n"


def load_protocol(path: str) -> ProtocolSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}")
    return parse_protocol(text)


def save_protocol(path: str, p: ProtocolSpec) -> None:
    text = serialize_protocol(p)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
