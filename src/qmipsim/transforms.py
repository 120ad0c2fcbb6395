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

import numpy as np

from .errors import (
    AlphabetMismatch,
    NoEraser,
    NotFairCoin,
    NotOrthonormal,
    NotRestrictive,
    NotReversible,
    SpaceExceeded,
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
    check_restrictive,
    fair_coin_violations,
    fixed_width_binary_encoding,
    guard_state,
    guard_states,
    make_track_alphabet,
    track,
    xor_symbols,
)
from .tolerances import AMPLITUDE_TOL, ORTHO_TOL, PRUNE_TOL, RANK_TOL

SQRT_HALF = 1 / math.sqrt(2)


@dataclass
class LiftOutput:
    protocol: ProtocolSpec
    row_provenance: dict[RowKey, RowKey | str]
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
        raise NotReversible(f"prover {prover.index} strategy {strat.kind!r} is not a plain table")
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


def make_eraser(
    index: int,
    comm_alphabet: tuple[str, ...],
    space: int,
    cutoff: int,
    tape_alphabet: tuple[str, ...] | None = None,
) -> ProverSpec:
    """An eraser prover over the given channel alphabet.

    It swaps the communication cell with tape cell j-1 at step j, so it
    needs one tape cell per step and a tape alphabet covering the channel.
    """
    if tape_alphabet is None:
        tape_alphabet = comm_alphabet
    if not set(comm_alphabet) <= set(tape_alphabet):
        raise AlphabetMismatch("eraser tape alphabet must cover its channel alphabet")
    if space < cutoff:
        raise SpaceExceeded(f"eraser needs {cutoff} tape cells for cutoff {cutoff}, got {space}")
    return ProverSpec(
        index=index,
        comm_alphabet=tuple(comm_alphabet),
        tape_alphabet=tuple(tape_alphabet),
        space=space,
        strategy=EraserStrategy(),
    )


def _quantum_ready(prover: ProverSpec, cutoff: int) -> ProverSpec:
    strat = prover.strategy
    if isinstance(strat, ClassicalTableStrategy) and not strat.is_injective():
        return make_reversible_prover(prover, cutoff)
    return prover


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


def _merge_targets(branches: list[Branch]) -> tuple[Branch, ...]:
    acc: dict[tuple, complex] = {}
    for (q2, d, sent, w) in branches:
        t = (q2, d, sent)
        acc[t] = acc.get(t, 0j) + complex(w)
    return tuple((q2, d, sent, w) for (q2, d, sent), w in acc.items() if abs(w) > PRUNE_TOL)


def lift_2ip_to_3qip(p: ProtocolSpec) -> LiftOutput:
    """Turn a fair-coin classical 2-prover protocol into a quantum 3-prover one.

    Each coin flip becomes an equal superposition of the two branches, and a
    record of the flip (which row fired, what was sent) goes to a third
    prover over a fresh channel. With the honest eraser there, the records
    pile up on its tape and distinct probabilistic histories stay orthogonal,
    so the quantum acceptance statistics match the classical ones round for
    round. Receiving anything but blank on the record channel rejects on the
    spot, echoing the reception into a fresh per-(state, symbol) reject
    state, which keeps the new rows orthonormal for free.
    """
    v = p.verifier
    if v.is_quantum():
        raise NotFairCoin(f"mode {v.mode!r} is already quantum")
    if p.k != 2:
        raise ValidationError(f"lift expects exactly 2 provers, got {p.k}")
    bad = fair_coin_violations(v)
    if bad:
        raise NotFairCoin(bad[0])

    provers = tuple(_quantum_ready(pr, p.cutoff) for pr in p.provers)

    log_symbols: dict[RowKey, str] = {}
    for key, branches in v.rows.items():
        log_symbols[key] = _log_symbol(key, branches)
    eraser_alphabet = (BLANK,) + tuple(dict.fromkeys(log_symbols.values()))

    rows: dict[RowKey, tuple[Branch, ...]] = {}
    provenance: dict[RowKey, RowKey | str] = {}
    for key, branches in v.rows.items():
        q, sigma, comm = key
        log = log_symbols[key]
        merged = _merge_targets(list(branches))
        if len(merged) == 1:
            (q2, d, sent, _), = merged
            lifted = ((q2, d, sent + (log,), 1.0 + 0j),)
        else:
            lifted = tuple(
                (q2, d, sent + (log,), complex(SQRT_HALF)) for (q2, d, sent, _) in merged
            )
        new_key = (q, sigma, comm + (BLANK,))
        rows[new_key] = lifted
        provenance[new_key] = key

        rej = guard_state("rej", q, sigma)
        for xi in eraser_alphabet:
            if xi == BLANK:
                continue
            echo_key = (q, sigma, comm + (xi,))
            if echo_key in rows:
                continue
            rows[echo_key] = ((rej, 1, comm + (xi,), 1.0 + 0j),)
            provenance[echo_key] = "record-channel-reject"

    fresh = guard_states("rej", v.rows)
    verifier = replace(
        v,
        mode="1qfa" if v.mode == "1pfa" else "2qfa",
        states=v.states + fresh,
        reject=v.reject | frozenset(fresh),
        comm_alphabets=v.comm_alphabets + (eraser_alphabet,),
        rows=rows,
        fallback=None,
    )
    eraser = make_eraser(3, eraser_alphabet, space=p.cutoff, cutoff=p.cutoff)
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
    via a fallback guard into fresh per-(state, symbol) reject states.
    """
    v = p.verifier
    if v.fallback is not None:
        raise ValidationError("protocol already has a fallback guard")
    merged = [BLANK]
    for g in v.comm_alphabets:
        for sym in g:
            if sym not in merged:
                merged.append(sym)
    target = 1 << max(1, math.ceil(math.log2(max(len(merged), 2))))
    merged += _pad_symbols(merged, target)
    merged_t = tuple(merged)

    fresh = guard_states("rejf", v.rows)
    verifier = replace(
        v,
        states=v.states + fresh,
        reject=v.reject | frozenset(fresh),
        comm_alphabets=tuple(merged_t for _ in v.comm_alphabets),
        fallback=ForeignGuard(slot_bases=v.comm_alphabets, known_states=frozenset(fresh)),
    )
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
    Lower-track tampering rejects via a fallback guard.
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
    if isinstance(v.fallback, ForeignGuard):
        upper_bases = tuple(v.fallback.slot_bases[:2])
    elif v.fallback is None:
        upper_bases = (gamma, gamma)
    else:
        raise ValidationError("cannot reduce a protocol that already has a track guard")

    encoding = fixed_width_binary_encoding(gamma)
    root = complex(1 / math.sqrt(len(gamma)))
    track_alphabet = make_track_alphabet(gamma, gamma)

    rows: dict[RowKey, tuple[Branch, ...]] = {}
    provenance: dict[RowKey, RowKey] = {}
    dropped: list[RowKey] = []
    for key, branches in v.rows.items():
        q, sigma, comm = key
        if comm[2] != BLANK:
            dropped.append(key)
            continue
        new_key = (q, sigma, (track(comm[0], BLANK), track(comm[1], BLANK)))
        acc: dict[tuple, complex] = {}
        for (q2, d, sent, w) in branches:
            for r in gamma:
                target = (q2, d, (track(sent[0], r), track(sent[1], xor_symbols(encoding, r, sent[2]))))
                acc[target] = acc.get(target, 0j) + complex(w) * root
        rows[new_key] = tuple((q2, d, sent, w) for (q2, d, sent), w in acc.items())
        provenance[new_key] = key

    fresh = guard_states("rejt", rows)
    verifier = replace(
        v,
        states=v.states + fresh,
        reject=v.reject | frozenset(fresh),
        comm_alphabets=(track_alphabet, track_alphabet),
        rows=rows,
        fallback=TrackGuard(slot_bases=upper_bases, known_states=frozenset(fresh)),
    )
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
    partial: dict,
    input_basis: list,
    output_basis: list,
    prefer: dict | None = None,
    tol: float = ORTHO_TOL,
) -> dict:
    """Extend a partial isometry to a full unitary over the given bases.

    `partial` maps an input basis element to its image column as
    {output element: amplitude}. Defined columns must be pairwise
    orthonormal (NotOrthonormal otherwise). Missing columns are filled by
    Gram-Schmidt from `prefer` candidates first (same format), then from
    standard basis vectors, so an empty partial over matching bases comes
    back as the identity. Returns a full column map in the same format.
    """
    if len(input_basis) != len(output_basis):
        raise ValidationError("unitary completion needs bases of equal size")
    n = len(input_basis)
    out_index = {b: i for i, b in enumerate(output_basis)}
    if len(out_index) != n or len(set(input_basis)) != n:
        raise ValidationError("basis elements must be distinct")

    def as_vector(column: dict) -> np.ndarray:
        vec = np.zeros(n, dtype=complex)
        for elem, amp in column.items():
            if elem not in out_index:
                raise ValidationError(f"column targets unknown basis element {elem!r}")
            vec[out_index[elem]] += amp
        return vec

    matrix = np.zeros((n, n), dtype=complex)
    have = []
    for col, elem in enumerate(input_basis):
        if elem in partial:
            matrix[:, col] = as_vector(partial[elem])
            have.append(col)
    for i, ci in enumerate(have):
        norm = np.linalg.norm(matrix[:, ci])
        if abs(norm - 1.0) > tol:
            raise NotOrthonormal(f"column for {input_basis[ci]!r} has norm {norm:.12g}")
        for cj in have[i + 1:]:
            ip = np.vdot(matrix[:, ci], matrix[:, cj])
            if abs(ip) > tol:
                raise NotOrthonormal(
                    f"columns for {input_basis[ci]!r} and {input_basis[cj]!r} are not orthogonal"
                )

    candidates: list[np.ndarray] = []
    if prefer:
        for elem in input_basis:
            if elem in prefer:
                candidates.append(as_vector(prefer[elem]))
    candidates.extend(np.eye(n, dtype=complex)[:, i] for i in range(n))

    chosen = [matrix[:, c] for c in have]
    for col, elem in enumerate(input_basis):
        if elem in partial:
            continue
        picked = None
        while candidates:
            cand = candidates.pop(0)
            for v in chosen:
                cand = cand - np.vdot(v, cand) * v
            nrm = np.linalg.norm(cand)
            if nrm > max(tol, RANK_TOL):
                picked = cand / nrm
                break
        if picked is None:
            raise NotOrthonormal("ran out of candidate directions during completion")
        matrix[:, col] = picked
        chosen.append(picked)

    result = {}
    for col, elem in enumerate(input_basis):
        column = {
            output_basis[row]: complex(matrix[row, col])
            for row in range(n)
            if abs(matrix[row, col]) > AMPLITUDE_TOL
        }
        result[elem] = column
    return result
