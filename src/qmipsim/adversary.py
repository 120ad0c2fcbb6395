"""Adversarial strategy search and prover derandomization.

Soundness claims quantify over all prover strategies, which no finite run
can cover. What a desk-scale tool can do is sweep structured families that
contain every strategy worth trying at these sizes: constant replies, full
reply sequences, echoes, and mask-track probes. The search caches the
round-1 residual (provers first act in round 2) and walks every combination
in one loop. When every strategy answers each local (comm, tape) state of
that residual with a single move, each strategy is applied once per local
state and round 2 of every combination, at any cutoff, is scored from those
moves plus verifier rows and per-slot guard verdicts. Sources that share
every slot's local state are scored together as one interference group, and
a group that the guard sends wholly to a halting state adds a triple
measured once per sweep. A combination is replayed when its round 2 cannot
be scored (a strategy branches, as rotations do, or merges two local
states, or something faults) or when it keeps more than PRUNE_TOL with
rounds left: the engine's round driver, which stops at that same test,
resumes it from the shared round 1 and raises the run's own error.

Derandomization goes the other way: given quantum provers attacking a
probabilistic verifier, it distills deterministic provers that reject at
most as often. The verifier reads each communication cell every round, so
the cell is effectively measured: each prover's move becomes probabilistic
branches with Born weights (`_Forced`), and the run goes through the
engine's round driver like any classical run. Picking, per reachable (step,
received symbol, tape), the reply with the smallest aggregate rejection mass
can only help the provers at each replacement, which gives the dominance
guarantee. Each candidate reply is scored by resuming the driver from the
walk's current round.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .engine import _Class, _check_round, _mass, _measure, _rounds, _run, input_tape, run_classical
from .errors import FamilyTooLarge, RunFault, Unbounded, ValidationError
from .specs import (
    BLANK,
    DerandomizedStrategy,
    LoggedReplyStrategy,
    ProtocolSpec,
    ProverSpec,
    constant_reply,
    echo_reply,
    fixed_width_binary_encoding,
    make_track_alphabet,
    parse_track,
    rotation_reply,
    track,
    xor_symbols,
)
from .tolerances import AMPLITUDE_TOL, BOUND_TOL, PINNED_MASS_TOL, PRUNE_TOL, TIE_TOL

DEFAULT_FAMILY_LIMIT = 10 ** 6


@dataclass(frozen=True)
class StrategyFamily:
    prover_index: int
    label: str
    strategies: tuple


def _label(strategy) -> str:
    """A strategy's name in reports: its `label`, else its `kind`, else its type's name."""
    for attr in ("label", "kind"):
        name = getattr(strategy, attr, None)
        if name is not None:
            return name
    return type(strategy).__name__


def _sequence_strategy(seq: tuple[str, ...]) -> LoggedReplyStrategy:
    return LoggedReplyStrategy(
        "seq:" + ",".join(seq),
        lambda step, recv, seq=seq: [(seq[min(step, len(seq)) - 1], 1.0 + 0j)],
    )


def reply_sequence_family(index: int, alphabet: tuple[str, ...], steps: int) -> StrategyFamily:
    """Every fixed reply sequence of the given length, plus the echo."""
    steps = max(1, steps)
    strategies = [_sequence_strategy(seq) for seq in itertools.product(alphabet, repeat=steps)]
    strategies.append(echo_reply())
    return StrategyFamily(index, f"sequences^{steps}", tuple(strategies))


def constant_family(index: int, alphabet: tuple[str, ...]) -> StrategyFamily:
    strategies = [constant_reply(sym) for sym in alphabet]
    strategies.append(echo_reply())
    return StrategyFamily(index, "constants", tuple(strategies))


def rotation_family(index: int, alphabet: tuple[str, ...]) -> StrategyFamily:
    """Equal-weight two-symbol superpositions over the alphabet, both signs."""
    strategies = []
    for i, a in enumerate(alphabet):
        for b in alphabet[i + 1:]:
            strategies.append(rotation_reply(a, b, +1))
            strategies.append(rotation_reply(a, b, -1))
    return StrategyFamily(index, "rotations", tuple(strategies))


def _is_track_alphabet(alphabet: tuple[str, ...]) -> bool:
    """True only for a full two-track product alphabet over one base set."""
    if len(alphabet) <= 2:
        return False
    if any(parse_track(sym) is None for sym in alphabet):
        return False
    base = _track_base(alphabet)
    return tuple(alphabet) == make_track_alphabet(base, base)


def _track_base(alphabet: tuple[str, ...]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for sym in alphabet:
        upper, _ = parse_track(sym)
        seen.setdefault(upper, None)
    return tuple(seen)


def track_probe_family(index: int, track_alphabet: tuple[str, ...]) -> StrategyFamily:
    """Probes for two-track mask channels.

    Constants over the full track alphabet, the echo, lower-track XOR shifts
    (they preserve any mask correlation an honest run would have), and
    upper-symbol substitutions that keep the lower track intact.
    """
    base = _track_base(track_alphabet)
    encoding = fixed_width_binary_encoding(base)
    strategies = [constant_reply(sym) for sym in track_alphabet]
    strategies.append(echo_reply())
    for s in base:
        if s == BLANK:
            continue
        def shift(step, recv, s=s):
            upper, lower = parse_track(recv)
            return [(track(upper, xor_symbols(encoding, lower, s)), 1.0 + 0j)]
        strategies.append(LoggedReplyStrategy(f"shift:{s}", shift))
    for c in base:
        def substitute(step, recv, c=c):
            _, lower = parse_track(recv)
            return [(track(c, lower), 1.0 + 0j)]
        strategies.append(LoggedReplyStrategy(f"upper:{c}", substitute))
    return StrategyFamily(index, "track-probes", tuple(strategies))


SEQUENCE_CAP = 4096


def default_families(p: ProtocolSpec, cutoff: int | None = None) -> tuple[StrategyFamily, ...]:
    """A reasonable family per prover, picked from the channel's shape."""
    T = cutoff if cutoff is not None else p.cutoff
    steps = max(1, T - 1)
    out = []
    for i, alphabet in enumerate(p.verifier.comm_alphabets):
        index = i + 1
        if _is_track_alphabet(alphabet):
            out.append(track_probe_family(index, alphabet))
        elif len(alphabet) ** steps <= SEQUENCE_CAP:
            out.append(reply_sequence_family(index, alphabet, steps))
        else:
            out.append(constant_family(index, alphabet))
    return tuple(out)


def _trial(p: ProtocolSpec, strategies, cutoff: int) -> ProtocolSpec:
    """p's verifier against one strategy per prover, with a logging cell per step."""
    space = max(1, cutoff)
    provers = tuple(
        ProverSpec(
            index=i + 1,
            comm_alphabet=p.verifier.comm_alphabets[i],
            tape_alphabet=p.verifier.comm_alphabets[i],
            space=space,
            strategy=strat,
        )
        for i, strat in enumerate(strategies)
    )
    return ProtocolSpec(p.name, p.verifier, provers, p.a, p.b, cutoff)


@dataclass
class SearchResult:
    objective: str
    best_value: float
    best_labels: tuple[str, ...]
    best_p_accept: float
    best_p_reject: float
    best_leftover: float
    evaluated: int
    table: list[tuple[tuple[str, ...], float, float]] | None = None


def _replay(p: ProtocolSpec, x: str, first, combo, T: int, quantum: bool):
    """(p_acc, p_rej, leftover) of one combination, its rounds 2..T resumed from the shared round 1."""
    stats = [first[0]] + [stat for stat, _ in _rounds(_trial(p, combo, T), x, T, quantum, after=first)]
    return sum(s.p_accept for s in stats), sum(s.p_reject for s in stats), stats[-1].residual_mass


class _Round2:
    """Round 2 of a sweep, scored per interference group from precomputed prover moves.

    A prover writes only its own cell and tape, so when each strategy answers
    every local (comm, tape) state with a single move, a combination's round-2
    state follows from what each strategy does to the distinct local states of
    the shared round-1 residual. Those moves are computed once per strategy;
    a combination then only looks up verifier rows (guard rows from per-slot
    verdicts), accumulates target amplitudes and measures them with the
    engine's `_measure` and `_check_round`. New tapes are interned per slot,
    so targets are keyed by small integers instead of tape tuples.

    Sources that share their local tuple (one local-state id per slot) form an
    interference group: they receive the same moves. `moves` refuses a
    strategy that sends two local states to one (reply, new tape), so the
    guard targets of different groups, which echo the reception and keep the
    tapes, never meet. When no explicit row of the residual's (state, input
    symbol) pairs targets a guard-minted state, a guard target meets no row
    target either. A group whose members all fall to the guard and halt
    there then adds the same (mass, p_acc, p_rej) to every combination that
    routes it there, so that triple is measured once per sweep. Any other
    group is scored source by source.

    `first` is the driver's round-1 class, mass included. `score` returns
    None on anything `run_round` would fault on; the caller then replays that
    combination, which raises the error itself.
    """

    def __init__(self, p: ProtocolSpec, tape, first: _Class, quantum: bool):
        v = p.verifier
        self.quantum = quantum
        self.rows = v.rows
        self.accept = v.accept
        self.reject = v.reject
        self.guard = v.fallback
        residual, _, self.before = first
        self.n = n = len(tape)
        self.local_states: list[dict[tuple, int]] = [{} for _ in range(p.k)]
        self.tape_ids: list[dict[tuple, int]] = [{} for _ in range(p.k)]
        self.verdicts: list[dict[str, bool]] = [{} for _ in range(p.k)]
        guard_targets: dict[tuple[str, str], str | None] = {}
        members: dict[tuple, list] = {}
        for config, amp in residual.items():
            sigma = tape[config.head % n]
            local = tuple(
                states.setdefault((config.comm[i], config.tapes[i]), len(states))
                for i, states in enumerate(self.local_states)
            )
            key = (config.state, sigma)
            if key not in guard_targets:
                guard_targets[key] = self.guard.target(*key) if self.guard is not None else None
            members.setdefault(local, []).append(
                (config.state, sigma, config.head, (config.head + 1) % n, amp, guard_targets[key])
            )
        row_comms: dict[tuple[str, str], set] = {key: set() for key in guard_targets}
        minted = set(guard_targets.values()) - {None}
        apart = True
        for (q, sigma, comm), row in self.rows.items():
            comms = row_comms.get((q, sigma))
            if comms is not None:
                comms.add(comm)
                apart = apart and not any(branch[0] in minted for branch in row)
        halting = self.accept | self.reject
        self.groups = []
        for local, group in members.items():
            halted = None
            # per reception prefix, the last prover's cells that complete an explicit row
            blocked: dict[tuple, set] = {}
            if apart and {name for *_, name in group} <= halting:
                halted = self._halted(group)
                for q, sigma, *_ in group:
                    for comm in row_comms[q, sigma]:
                        blocked.setdefault(comm[:-1], set()).add(comm[-1:])
            self.groups.append((local, tuple(group), blocked, halted))

    def _halted(self, group):
        """(mass, p_acc, p_rej) of a group whose members all move to their guard targets."""
        out: dict[tuple, complex] = {}
        for _, _, _, head_next, amp, name in group:
            out[name, head_next] = out.get((name, head_next), 0j) + amp
        return _measure(out.items(), self.quantum, self.accept, self.reject)[:3]

    def moves(self, slot: int, strategy):
        """Per local state of `slot`: ((reply,), tape id, weight or None for 1, guard verdict).

        None when the strategy branches, merges two local states, or fails on
        one; every combination with it is then replayed.
        """
        out = []
        seen = set()
        verdicts = self.verdicts[slot]
        tape_ids = self.tape_ids[slot]
        for comm, tape in self.local_states[slot]:
            # the replay raises whatever this raises, so any failure just opts out
            try:
                if self.quantum:
                    column = strategy.apply_quantum(1, comm, tape)
                    if len(column) != 1:
                        return None
                    (reply, new_tape), w = column[0]
                else:
                    (reply, new_tape), w = strategy.apply_classical(1, comm, tape), 1
                if reply not in verdicts:
                    verdicts[reply] = self.guard is not None and self.guard.rejects(slot, reply)
            except Exception:
                return None
            if (reply, new_tape) in seen:
                return None
            seen.add((reply, new_tape))
            tid = tape_ids.setdefault(new_tape, len(tape_ids))
            out.append(((reply,), tid, None if w == 1 else w, verdicts[reply]))
        return out

    def prefix(self, moves_per_slot):
        """The groups after every prover but the last has moved, as `score` takes them.

        A source whose amplitude falls below PRUNE_TOL is dropped, as the
        prover stage's prune would; a weighted group loses its halted triple.
        """
        out = []
        for local, group, blocked, halted in self.groups:
            comm = ()
            tapes = ()
            rejected = False
            weights = []
            for slot, moves in enumerate(moves_per_slot):
                cell, tid, w, rej = moves[local[slot]]
                comm += cell
                tapes += (tid,)
                rejected = rejected or rej
                if w is not None:
                    weights.append(w)
            if weights:
                group = tuple(self._weighted(group, weights))
                halted = None
            out.append((local[-1], group, comm, tapes, rejected, blocked.get(comm, ()), halted))
        return out

    @staticmethod
    def _weighted(group, weights):
        for q, sigma, head, head_next, amp, name in group:
            for w in weights:
                amp = amp * w
                if abs(amp) < PRUNE_TOL:
                    break
            else:
                yield q, sigma, head, head_next, amp, name

    def score(self, groups, moves):
        """(p_acc, p_rej, leftover) of round 2 once the last prover plays `moves`."""
        rows = self.rows
        n = self.n
        after = p_acc = p_rej = 0.0
        out: dict[tuple, complex] = {}
        get = out.get
        for last, group, comm, tapes, rejected, blocked, halted in groups:
            cell, tid, w, rej = moves[last]
            rejected = rejected or rej
            if halted is not None and w is None and rejected and cell not in blocked:
                after += halted[0]
                p_acc += halted[1]
                p_rej += halted[2]
                continue
            comm = comm + cell
            for q, sigma, head, head_next, amp, name in group:
                if w is not None:
                    amp = amp * w
                    if abs(amp) < PRUNE_TOL:
                        continue
                row = rows.get((q, sigma, comm))
                if row is None:
                    if name is None or not rejected:
                        return None
                    key = (name, head_next, comm, tapes, tid)
                    out[key] = get(key, 0j) + amp
                    continue
                for q2, d, sent, weight in row:
                    key = (q2, (head + d) % n, sent, tapes, tid)
                    out[key] = get(key, 0j) + amp * weight
        kept, acc, rej, residual = _measure(out.items(), self.quantum, self.accept, self.reject)
        after += kept
        p_acc += acc
        p_rej += rej
        leftover = _mass(residual, self.quantum)
        try:
            _check_round(2, self.before, after, p_acc, p_rej, leftover)
        except RunFault:
            return None
        return p_acc, p_rej, leftover


def _sweep(p: ProtocolSpec, x: str, first, families, labels, T: int, quantum: bool):
    """(labels, (total p_acc, total p_rej, leftover)) of every combination, in `itertools.product` order.

    Every combination is replayed when there is no round 2 to score: at
    cutoff 1, after a round 1 that leaves at most PRUNE_TOL, without provers,
    and for a quantum verifier on the two-cell tape of "", where the replay
    checks that head moves never collide.
    """
    stat1, classes = first
    round2 = None
    if families and T >= 2 and stat1.residual_mass > PRUNE_TOL and not (quantum and x == ""):
        round2 = _Round2(p, input_tape(x, p.verifier), classes[0], quantum)
        moves = [[round2.moves(i, s) for s in fam.strategies] for i, fam in enumerate(families)]
    picks = itertools.product(*(range(len(fam.strategies)) for fam in families))
    for names, chosen in zip(itertools.product(*labels), picks):
        scored = None
        if round2 is not None:
            last = chosen[-1]
            # the last pick runs fastest, so it is 0 exactly when the earlier picks change
            if last == 0:
                prefix = [m[i] for m, i in zip(moves, chosen[:-1])]
                groups = None if None in prefix else round2.prefix(prefix)
            tail = moves[-1][last]
            if groups is not None and tail is not None:
                scored = round2.score(groups, tail)
        if scored is None or (T > 2 and scored[2] > PRUNE_TOL):
            combo = tuple(fam.strategies[i] for fam, i in zip(families, chosen))
            yield names, _replay(p, x, first, combo, T, quantum)
        else:
            yield names, (stat1.p_accept + scored[0], stat1.p_reject + scored[1], scored[2])


def search(
    p: ProtocolSpec,
    x: str,
    families: tuple[StrategyFamily, ...] | None = None,
    objective: str = "max-accept",
    cutoff: int | None = None,
    limit: int | None = None,
    keep_table: bool = False,
) -> SearchResult:
    """Sweep one strategy per prover over the given families.

    Deterministic order, first strict optimum kept, so results are
    reproducible run to run. Round 1 happens before any prover acts and is
    computed once for the whole sweep. At every cutoff from 2 on, round 2 of
    each combination of single-move strategies is scored from precomputed
    moves; the rest, and combinations that keep mass past round 2 with
    rounds left, are replayed round by round.
    """
    if objective not in ("max-accept", "min-reject"):
        raise ValidationError(f"unknown objective {objective!r}")
    T = cutoff if cutoff is not None else p.cutoff
    if T < 1:
        raise ValidationError("cutoff must be at least 1")
    if families is None:
        families = default_families(p, cutoff)
    if len(families) != p.k:
        raise ValidationError(f"need {p.k} families, got {len(families)}")
    for i, fam in enumerate(families):
        if fam.prover_index != i + 1:
            raise ValidationError(f"family {i} is labeled for prover {fam.prover_index}")
        if not fam.strategies:
            raise ValidationError(f"family {fam.label!r} for prover {fam.prover_index} has no strategies")
    cap = limit if limit is not None else DEFAULT_FAMILY_LIMIT
    total = 1
    for fam in families:
        total *= len(fam.strategies)
    if total > cap:
        sizes = "x".join(str(len(f.strategies)) for f in families)
        raise FamilyTooLarge(f"{sizes} = {total} combinations exceeds the limit of {cap}")

    quantum = p.verifier.is_quantum()
    # round 1 precedes any prover move, so it is shared by every combination;
    # the tapes must already have the sweep strategies' logging cells
    first = next(_rounds(_trial(p, (None,) * p.k, T), x, 1, quantum))

    labels = [[_label(s) for s in fam.strategies] for fam in families]

    best = None
    table: list[tuple[tuple[str, ...], float, float]] | None = [] if keep_table else None
    evaluated = 0
    for names, (total_acc, total_rej, leftover) in _sweep(p, x, first, families, labels, T, quantum):
        evaluated += 1
        if table is not None:
            table.append((names, total_acc, total_rej))
        value = total_acc if objective == "max-accept" else total_rej
        better = (
            best is None
            or (objective == "max-accept" and value > best[0] + TIE_TOL)
            or (objective == "min-reject" and value < best[0] - TIE_TOL)
        )
        if better:
            best = (value, names, total_acc, total_rej, leftover)
    return SearchResult(
        objective=objective,
        best_value=best[0],
        best_labels=best[1],
        best_p_accept=best[2],
        best_p_reject=best[3],
        best_leftover=best[4],
        evaluated=evaluated,
        table=table,
    )


@dataclass
class SoundnessReport:
    input: str
    claimed_b: float
    empirical_b: float
    worst_labels: tuple[str, ...]
    evaluated: int
    meets_claim: bool


def soundness_gap(
    p: ProtocolSpec,
    x: str,
    families: tuple[StrategyFamily, ...] | None = None,
    cutoff: int | None = None,
    limit: int | None = None,
) -> SoundnessReport:
    """Smallest rejection probability any family combination achieves on x."""
    result = search(p, x, families, objective="min-reject", cutoff=cutoff, limit=limit)
    return SoundnessReport(
        input=x,
        claimed_b=p.b,
        empirical_b=result.best_value,
        worst_labels=result.best_labels,
        evaluated=result.evaluated,
        meets_claim=result.best_value >= p.b - BOUND_TOL,
    )


# ---------------------------------------------------------------------------
# derandomization: quantum provers against a probabilistic verifier

class _Forced:
    """A strategy measured right after it moves, with some replies pinned down.

    `apply_quantum` returns the Born-measured moves, sorted by reply, as
    probabilistic branches. The tape state per reply must be a single basis
    tape, which holds for every strategy here (tape updates only log the
    received symbol); a strategy that entangles its tape with the reply has
    no deterministic shadow. At a pinned (step, received, tape) only the
    pinned reply's moves remain, renormalised. The pinning dict is shared and
    read live, so choices accumulate in place.
    """
    kind = "forced"

    def __init__(self, base, fixed: dict):
        self.base = base
        self.fixed = fixed
        self.label = _label(base) + "+forced"

    def apply_quantum(self, step, comm, tape):
        moves = self.base.apply_quantum(step, comm, tape)
        pinned = self.fixed.get((step, comm, tape))
        if pinned is not None:
            moves = [(target, amp) for target, amp in moves if target[0] == pinned]
            mass = sum((a * a.conjugate()).real for _, a in moves)
            if mass <= PINNED_MASS_TOL:
                raise Unbounded(f"forced reply {pinned!r} has no amplitude at step {step}")
            scale = mass ** -0.5
            moves = [(target, amp * scale) for target, amp in moves]
        groups: dict[str, dict[tuple, complex]] = {}
        for (reply, new_tape), amp in moves:
            tapes = groups.setdefault(reply, {})
            tapes[new_tape] = tapes.get(new_tape, 0j) + complex(amp)
        out = []
        for reply, tapes in sorted(groups.items()):
            live = [(t, a) for t, a in tapes.items() if abs(a) > AMPLITUDE_TOL]
            if len(live) > 1:
                raise Unbounded(f"strategy {self.label} entangles its tape with the reply at step {step}")
            for new_tape, amp in live:
                out.append(((reply, new_tape), (amp * amp.conjugate()).real))
        return out


@dataclass
class DerandomizeReport:
    quantum_p_accept: float
    quantum_p_reject: float
    derandomized_p_accept: float
    derandomized_p_reject: float
    decisions: int

    @property
    def dominated(self) -> bool:
        return self.derandomized_p_reject <= self.quantum_p_reject + BOUND_TOL


def derandomize_provers(
    p: ProtocolSpec,
    x: str,
    strategies,
    cutoff: int | None = None,
    limit: int | None = None,
) -> tuple[tuple[DerandomizedStrategy, ...], DerandomizeReport]:
    """Deterministic provers that reject no more often than the quantum ones.

    Decisions are replaced one at a time in execution order (step, then
    prover index). At each reachable (step, received symbol, tape) the reply
    minimizing the whole tree's rejection mass is pinned; ties go to the
    alphabetically first reply. Each replacement is a choice among branches
    of the current value's convex decomposition, so the rejection mass never
    increases, and the final strategies are plain reply tables.
    """
    if p.verifier.is_quantum():
        raise ValidationError("derandomization targets a probabilistic verifier")
    if len(strategies) != p.k:
        raise ValidationError(f"need {p.k} strategies, got {len(strategies)}")
    T = cutoff if cutoff is not None else p.cutoff
    if T < 1:
        raise ValidationError("cutoff must be at least 1")
    cap = limit if limit is not None else DEFAULT_FAMILY_LIMIT

    fixed: list[dict] = [{} for _ in range(p.k)]
    wrapped = [_Forced(s, fixed[i]) for i, s in enumerate(strategies)]
    trial = _trial(p, wrapped, T)
    quantum_run = _run(trial, x, T, quantum=False, measured=True)

    # provers write only their own slots, so prover i's local states at a step
    # are those of the residual after round `step`; one walk, advanced a round
    # per step, reads them with every choice of earlier steps already pinned and
    # scores each candidate from there, after the rejection summed so far
    decisions = 0
    prefix = 0.0
    for stat, classes in itertools.islice(_rounds(trial, x, T, quantum=False, measured=True), T - 1):
        step = stat.index
        prefix += stat.p_reject
        for i in range(p.k):
            seen = dict.fromkeys((c.comm[i], c.tapes[i]) for state, _, _ in classes for c in state)
            for sigma, y in seen:
                key = (step, sigma, y)
                moves = strategies[i].apply_quantum(step, sigma, y)
                candidates = sorted({reply for (reply, _), amp in moves if abs(amp) > AMPLITUDE_TOL})
                decisions += 1
                if decisions > cap:
                    raise Unbounded(f"more than {cap} derandomization decisions")
                if len(candidates) == 1:
                    fixed[i][key] = candidates[0]
                    continue
                best: tuple[float, str] | None = None
                for tau in candidates:
                    fixed[i][key] = tau
                    rest = _rounds(trial, x, T, quantum=False, measured=True, after=(stat, classes))
                    rej = sum((later.p_reject for later, _ in rest), prefix)
                    if best is None or rej < best[0] - TIE_TOL:
                        best = (rej, tau)
                fixed[i][key] = best[1]

    out = tuple(DerandomizedStrategy(choices=dict(fixed[i])) for i in range(p.k))
    det_run = run_classical(_trial(p, out, T), x, T)
    report = DerandomizeReport(
        quantum_p_accept=quantum_run.p_accept,
        quantum_p_reject=quantum_run.p_reject,
        derandomized_p_accept=det_run.p_accept,
        derandomized_p_reject=det_run.p_reject,
        decisions=decisions,
    )
    return out, report
