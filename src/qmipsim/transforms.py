"""Protocol transformations.

Three constructions, composable left to right:

  lift_2ip_to_3qip    fair-coin classical 2-prover -> quantum 3-prover whose
                      third prover is an eraser that soaks up the coin record
  unify_alphabets     equalize and pad the channel alphabets to a power of two
  reduce_3qip_to_2qip fold the eraser into the two remaining provers using a
                      one-time-pad mask on a second track

Each transform returns the new protocol plus provenance maps tying new rows
back to their sources. Outputs are ordinary protocols: they validate, run,
and serialize like hand-written ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    AlphabetMismatch,
    NoEraser,
    NotFairCoin,
    NotOrthonormal,
    NotRestrictive,
    NotReversible,
    ValidationError,
)
from .specs import (
    BLANK,
    Branch,
    ClassicalTableStrategy,
    EraserStrategy,
    ForeignGuard,
    ProtocolSpec,
    ProverSpec,
    ReversibleWrapStrategy,
    RowKey,
    TrackGuard,
    TrackWrapStrategy,
    VerifierSpec,
    _orthonormal_violations,
    check_restrictive,
    code_order,
    fair_coin_violations,
    guard_states,
    make_track_alphabet,
    parse_track,
    row_fault,
    strategy_label,
    sum_targets,
    track,
)
from .tolerances import AMPLITUDE_TOL, PRUNE_TOL, RANK_TOL

SQRT_HALF = 1 / math.sqrt(2)


@dataclass
class LiftOutput:
    protocol: ProtocolSpec
    row_provenance: dict[RowKey, RowKey]
    log_symbols: dict[RowKey, str]


@dataclass
class ReduceOutput:
    protocol: ProtocolSpec
    row_provenance: dict[RowKey, RowKey]
    dropped_rows: list[RowKey]


# ---------------------------------------------------------------------------
# prover helpers

def make_reversible_prover(prover: ProverSpec, cutoff: int) -> ProverSpec:
    """Make a deterministic prover usable as a quantum one.

    An injective table already is; otherwise logging each received symbol at
    a fresh history cell restores injectivity, provided the table is
    injective for each fixed received symbol. A table that merges two work
    tapes under the same received symbol has no reversible extension with
    the same replies, so that raises NotReversible.
    """
    strat = prover.strategy
    if not isinstance(strat, ClassicalTableStrategy):
        raise NotReversible(f"prover {prover.index} strategy {strategy_label(strat)!r} is not a plain table")
    if strat.is_injective():
        return prover
    if not strat.injective_per_receive():
        raise NotReversible(
            f"prover {prover.index} table merges distinct work tapes under one received symbol"
        )
    return replace(
        prover,
        tape_alphabet=tuple(dict.fromkeys(tuple(prover.tape_alphabet) + tuple(prover.comm_alphabet))),
        space=strat.work + cutoff,
        strategy=ReversibleWrapStrategy(inner=strat, hist_offset=strat.work),
    )


def make_eraser(index: int, comm_alphabet: tuple[str, ...], cutoff: int) -> ProverSpec:
    """An eraser prover over the given channel alphabet, which is also its tape alphabet.

    It swaps the communication cell with tape cell j-1 at step j, so it
    gets one tape cell per step: `cutoff` of them.
    """
    return ProverSpec(
        index=index,
        comm_alphabet=tuple(comm_alphabet),
        tape_alphabet=tuple(comm_alphabet),
        space=cutoff,
        strategy=EraserStrategy(),
    )


# ---------------------------------------------------------------------------
# foreign guards

def _slot_bases(v: VerifierSpec) -> tuple[tuple[str, ...], ...]:
    """The legal symbols per slot: a foreign guard's bases, else the channel alphabets."""
    return v.fallback.slot_bases if isinstance(v.fallback, ForeignGuard) else v.comm_alphabets


def _guarded(v: VerifierSpec, kind, slot_bases, **changes) -> VerifierSpec:
    """`v` with `changes`, rejecting receptions outside `slot_bases` through a
    guard of class `kind` into per-(state, symbol) reject states minted from
    the output rows. A guard of the same kind on `v` keeps its states; one of
    another kind is replaced, and its states go unless an output row targets them."""
    rows = changes.get("rows", v.rows)
    old = v.fallback.known_states if v.fallback is not None else frozenset()
    known = old if isinstance(v.fallback, kind) else frozenset()
    dropped = old - known - {branch[0] for row in rows.values() for branch in row}
    minted = guard_states(kind.prefix, rows)
    fresh = tuple(s for s in minted if s not in known)
    guard = kind(slot_bases=slot_bases, known_states=known | frozenset(minted))
    states = tuple(s for s in v.states if s not in dropped) + fresh
    return replace(v, states=states, reject=(v.reject - dropped) | frozenset(fresh), fallback=guard, **changes)


# ---------------------------------------------------------------------------
# lift: fair-coin classical 2-prover -> quantum 3-prover with an eraser

def _log_symbol(key: RowKey, branches: tuple[Branch, ...]) -> str:
    q, sigma, comm = key
    upper_parts = [q, sigma, *comm]
    lower_parts = [sym for (_, _, sent, _) in branches for sym in sent]
    for part in upper_parts + lower_parts:
        if "." in part or "/" in part or "[" in part or "]" in part:
            raise ValidationError(
                f"symbol or state {part!r} clashes with the record-symbol syntax"
            )
    return track(".".join(upper_parts), ".".join(lower_parts))


def _merge_targets(branches: tuple[Branch, ...]) -> tuple[Branch, ...]:
    summed = sum_targets(((q2, d, sent), w) for q2, d, sent, w in branches)
    return tuple((q2, d, sent, w) for (q2, d, sent), w in summed.items() if abs(w) > PRUNE_TOL)


def lift_2ip_to_3qip(p: ProtocolSpec) -> LiftOutput:
    """Turn a fair-coin classical 2-prover protocol into a quantum 3-prover one.

    Each coin flip becomes an equal superposition of the two branches, and a
    record of the flip (which row fired, what was sent) goes to a third
    prover over a fresh channel. With the honest eraser there, the records
    pile up on its tape and distinct probabilistic histories stay orthogonal,
    so the quantum acceptance statistics match the classical ones round for
    round. Receiving anything but blank on the record channel rejects on the
    spot: a foreign guard (the source's, if it has one) whose record-slot
    base is the blank alone echoes the reception into a per-(state, symbol)
    reject state, which keeps the new rows orthonormal for free.
    """
    v = p.verifier
    if v.is_quantum():
        raise NotFairCoin(f"mode {v.mode!r} is already quantum")
    if p.k != 2:
        raise ValidationError(f"lift expects exactly 2 provers, got {p.k}")
    bad = fair_coin_violations(v)
    if bad:
        raise NotFairCoin(bad[0])
    if isinstance(v.fallback, TrackGuard):
        raise ValidationError("cannot lift a protocol with a track guard")

    provers = tuple(
        make_reversible_prover(pr, p.cutoff) if isinstance(pr.strategy, ClassicalTableStrategy) else pr
        for pr in p.provers
    )

    log_symbols = {key: _log_symbol(key, branches) for key, branches in v.rows.items()}
    eraser_alphabet = (BLANK,) + tuple(dict.fromkeys(log_symbols.values()))

    rows: dict[RowKey, tuple[Branch, ...]] = {}
    provenance: dict[RowKey, RowKey] = {}
    for key, branches in v.rows.items():
        q, sigma, comm = key
        log = log_symbols[key]
        merged = _merge_targets(branches)
        w = 1.0 + 0j if len(merged) == 1 else complex(SQRT_HALF)
        new_key = (q, sigma, comm + (BLANK,))
        rows[new_key] = tuple((q2, d, sent + (log,), w) for (q2, d, sent, _) in merged)
        provenance[new_key] = key

    verifier = _guarded(
        v,
        ForeignGuard,
        _slot_bases(v) + ((BLANK,),),
        mode="1qfa" if v.mode == "1pfa" else "2qfa",
        comm_alphabets=v.comm_alphabets + (eraser_alphabet,),
        rows=rows,
    )
    eraser = make_eraser(3, eraser_alphabet, cutoff=p.cutoff)
    out = replace(p, name=p.name + "-lift", verifier=verifier, provers=provers + (eraser,))
    return LiftOutput(out, provenance, log_symbols)


# ---------------------------------------------------------------------------
# alphabet unification

def _pad_symbols(base: list[str], want: int) -> list[str]:
    pads = []
    i = 0
    while len(base) + len(pads) < want:
        sym = f"~{i}"
        if sym not in base:
            pads.append(sym)
        i += 1
    return pads


def unify_alphabets(p: ProtocolSpec) -> ProtocolSpec:
    """Give every channel the same alphabet, padded to a power of two.

    The merged alphabet is the union of the per-channel ones plus filler
    symbols up to the next power of two, which the XOR masking downstream
    needs. Nothing honest ever sends the new symbols; receiving one rejects
    via a foreign guard (the lift's, if there is one, keeps its slot bases)
    into per-(state, symbol) reject states.
    """
    v = p.verifier
    if isinstance(v.fallback, TrackGuard):
        raise ValidationError("cannot unify a protocol with a track guard")
    merged = list(dict.fromkeys((BLANK,) + tuple(sym for g in v.comm_alphabets for sym in g)))
    target = 1 << max(1, math.ceil(math.log2(max(len(merged), 2))))
    merged += _pad_symbols(merged, target)
    merged_t = tuple(merged)
    if v.fallback is not None and all(tuple(g) == merged_t for g in v.comm_alphabets):
        raise ValidationError("protocol is already unified")

    verifier = _guarded(v, ForeignGuard, _slot_bases(v), comm_alphabets=tuple(merged_t for _ in v.comm_alphabets))
    provers = tuple(
        replace(pr, comm_alphabet=merged_t, tape_alphabet=tuple(dict.fromkeys(tuple(pr.tape_alphabet) + merged_t)))
        for pr in p.provers
    )
    return replace(p, name=p.name + "-unified", verifier=verifier, provers=provers)


# ---------------------------------------------------------------------------
# reduce: quantum 3-prover with eraser -> quantum 2-prover

def reduce_3qip_to_2qip(p: ProtocolSpec) -> ReduceOutput:
    """Fold an eraser's channel into the two real provers.

    The two survivors talk over two-track symbols [symbol/mask]. On the
    lower track the verifier one-time-pads the record it used to send to the
    eraser: a uniform superposition over masks r goes to prover 1 and
    r XOR record to prover 2. Neither prover's view carries any information
    (each lower track is uniform on its own), yet the verifier's rows stay
    pairwise orthonormal because the XOR ties the two tracks together.
    Provers answer through a track adapter that strips and stores the mask.
    Lower-track tampering rejects via a track guard, which takes over the
    foreign guard's bases and drops its reject states.
    """
    v = p.verifier
    if not v.is_quantum():
        raise NotRestrictive(f"mode {v.mode!r} is classical")
    if p.k != 3:
        raise ValidationError(f"reduction expects exactly 3 provers, got {p.k}")
    if not check_restrictive(v):
        raise NotRestrictive("verifier rows superpose more than two branches")
    gammas = {tuple(g) for g in v.comm_alphabets}
    if len(gammas) != 1:
        raise AlphabetMismatch("channel alphabets differ; run unify_alphabets first")
    gamma = v.comm_alphabets[0]
    if len(gamma) & (len(gamma) - 1):
        raise AlphabetMismatch(
            f"channel alphabet size {len(gamma)} is not a power of two; run unify_alphabets first"
        )
    if not isinstance(p.provers[2].strategy, EraserStrategy):
        raise NoEraser("third prover is not an eraser")
    # per-slot legal upper symbols: a unified protocol's guard remembers the
    # pre-padding alphabets, and the track guard must keep enforcing them
    if isinstance(v.fallback, TrackGuard):
        raise ValidationError("cannot reduce a protocol that already has a track guard")
    upper_bases = tuple(_slot_bases(v)[:2])
    # the track wrap reads [s/r] back through `parse_track`; a symbol that
    # splits otherwise would reach the provers as some other symbol
    for sym in gamma:
        if parse_track(track(sym, BLANK)) != (sym, BLANK):
            raise ValidationError(f"channel symbol {sym!r} cannot ride on a track symbol")
    bad = row_fault(v)
    if bad is not None:
        raise ValidationError(bad[1])

    # [s/r] is track_alphabet[position[s] * m + position[r]], and r XOR record is the symbol
    # with code code[r] ^ code[record]; the size is a power of two, so every XOR lands in the alphabet
    m = len(gamma)
    root = complex(1 / math.sqrt(m))
    track_alphabet = make_track_alphabet(gamma, gamma)
    position = {sym: i for i, sym in enumerate(gamma)}
    by_code = code_order(gamma)
    code = {sym: i for i, sym in enumerate(by_code)}
    code_position = [position[sym] for sym in by_code]
    masks = tuple(enumerate(code[r] for r in gamma))  # (position[r], code[r]) in alphabet order

    rows: dict[RowKey, tuple[Branch, ...]] = {}
    provenance: dict[RowKey, RowKey] = {}
    dropped: list[RowKey] = []
    for key, branches in v.rows.items():
        q, sigma, comm = key
        if comm[2] != BLANK:
            dropped.append(key)
            continue
        new_key = (q, sigma, (track(comm[0], BLANK), track(comm[1], BLANK)))
        summed = sum_targets(
            ((q2, d, (track_alphabet[upper_1 + r_at], track_alphabet[upper_2 + code_position[r_code ^ record]])),
             weight)
            for q2, d, sent, w in branches
            for upper_1, upper_2, record, weight in [(position[sent[0]] * m, position[sent[1]] * m,
                                                      code[sent[2]], complex(w) * root)]
            for r_at, r_code in masks
        )
        rows[new_key] = tuple((q2, d, sent, w) for (q2, d, sent), w in summed.items())
        provenance[new_key] = key

    verifier = _guarded(v, TrackGuard, upper_bases, comm_alphabets=(track_alphabet, track_alphabet), rows=rows)
    provers = tuple(
        replace(
            pr,
            comm_alphabet=track_alphabet,
            tape_alphabet=tuple(dict.fromkeys(tuple(pr.tape_alphabet) + tuple(gamma))),
            space=pr.space + p.cutoff,
            strategy=TrackWrapStrategy(inner=pr.strategy, mask_offset=pr.space),
        )
        for pr in p.provers[:2]
    )
    name = (p.name[:-len("-unified")] if p.name.endswith("-unified") else p.name) + "-reduce"
    return ReduceOutput(replace(p, name=name, verifier=verifier, provers=provers), provenance, dropped)


# ---------------------------------------------------------------------------
# unitary completion

def complete_unitary(
    partial: dict, input_basis: list, output_basis: list, prefer: dict | None = None
) -> dict:
    """Extend a partial isometry to a full unitary over the given bases.

    `partial` maps an input basis element to its image column as
    {output element: amplitude}. Defined columns must be pairwise
    orthonormal (NotOrthonormal otherwise). Missing columns are filled by
    Gram-Schmidt from `prefer` candidates first (same format), then from
    standard basis vectors, so an empty partial over matching bases comes
    back as the identity. Each candidate is orthogonalized twice, which keeps
    the result unitary to rounding however nearly dependent the candidates
    are. Returns a full column map in the same format.
    """
    if len(input_basis) != len(output_basis):
        raise ValidationError("unitary completion needs bases of equal size")
    n = len(input_basis)
    out_index = {b: i for i, b in enumerate(output_basis)}
    if len(out_index) != n or len(set(input_basis)) != n:
        raise ValidationError("basis elements must be distinct")

    def as_vector(column: dict) -> list[complex]:
        vec = [0j] * n
        for elem, amp in column.items():
            if elem not in out_index:
                raise ValidationError(f"column targets unknown basis element {elem!r}")
            vec[out_index[elem]] += amp
        return vec

    # keyed by position as well: the shared check orders its keys, which basis elements of
    # mixed types cannot be
    given = {(i, elem): as_vector(partial[elem]) for i, elem in enumerate(input_basis) if elem in partial}
    bad = _orthonormal_violations({key: dict(enumerate(vec)) for key, vec in given.items()}, "column")
    if bad:
        raise NotOrthonormal(bad[0])

    preferred = [as_vector(prefer[elem]) for elem in input_basis if elem in (prefer or {})]
    candidates = iter(preferred + [[complex(i == j) for i in range(n)] for j in range(n)])
    columns = {elem: vec for (_, elem), vec in given.items()}
    # a candidate is always left: outside m < n orthonormal columns the n standard basis vectors keep
    # n - m >= 1 of their squared norm, those passed over at most RANK_TOL^2 each (any n below 1e13)
    for elem in input_basis:
        if elem in columns:
            continue
        for cand in candidates:
            for _ in range(2):
                for v in columns.values():
                    ip = sum(a.conjugate() * b for a, b in zip(v, cand))
                    cand = [b - ip * a for a, b in zip(v, cand)]
            nrm = math.sqrt(sum(abs(c) ** 2 for c in cand))
            if nrm > RANK_TOL:
                break
        columns[elem] = [c / nrm for c in cand]

    return {
        elem: {output_basis[row]: amp for row, amp in enumerate(columns[elem]) if abs(amp) > AMPLITUDE_TOL}
        for elem in input_basis
    }
