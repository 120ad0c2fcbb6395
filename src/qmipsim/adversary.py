"""Adversarial strategy search and prover derandomization.

Soundness claims quantify over all prover strategies, which no finite run can
cover. What a desk-scale tool can do is sweep structured families that
contain every strategy worth trying at these sizes: constant replies, full
reply sequences, echoes, and mask-track probes. The search caches the round-1
residual: provers first act in round 2, and the verifier writes no tape, so
every prover tape there is still blank. Every built-in strategy is a plain
`LoggedReplyStrategy`, whose move is its reply `fn(step, received)` plus the
reception logged on its tape (`specs.log_reception`): on that blank tape the
new tape is fixed by the reception, whatever the reply, so a slot's reception
stands for its tape. When every strategy is such a strategy and replies to
each reception of the residual with weight exactly 1, round 2, at any cutoff
and on any input, is scored from those replies by the driver's own verifier
pass (`engine._verify_and_measure`, guard rows and the two-cell head-move
check included). Constants and reply sequences are not even asked: their
`fn` is `specs.FixedReplies`, data that ignores the reception, so their
step-1 reply is read off it. Sources that share every slot's reception are
scored together as one interference group, and a group that the guard sends
wholly to a halting state adds a triple measured once per sweep. A
strategy's replies are its class key, with one shared token, None, for a
reply that the guard rejects at its slot, that no explicit row receives
there, and whose reception's groups all halt through the guard: that reply
only ever takes those triples. Each prover's strategies with equal keys fall
in one class, and each class tuple (one key per prover) is scored once, for
all of its combinations. A combination is replayed when its round 2 cannot
be scored (a strategy of any other type, subclasses included, one that
branches, as rotations do, or puts a phase on its reply, or something
faults, such as a verifier column whose head moves collide on the two-cell
tape of "") or when it keeps more than PRUNE_TOL with rounds left: the
engine's round driver, which stops at that same test, resumes it from the
shared round 1, merges the histories of logged strategies by their tapes
(their `record`) and raises the run's own error.
Round 1, the scorer and every replay are passes of one verifier on one
input, so they read one column cache, the verifier's own (`engine._columns`).

Derandomization goes the other way: given quantum provers attacking a
probabilistic verifier, it distills deterministic provers that reject at
most as often. The verifier reads each communication cell every round, so
the cell is effectively measured: each prover's move becomes probabilistic
branches with Born weights (`_Forced`, declared `measured`), and the run
goes through the engine's round driver like any classical run. Each view
(step, received symbol, tape) is measured once per derandomization, and the
runs, the candidate replies and the pins all read that table; a pinned view
moves by the pinned reply's move with weight 1. Picking, per reachable view,
the candidate with the smallest aggregate rejection mass can only help the
provers at each replacement, which gives the dominance guarantee. Each
candidate reply is scored by resuming the driver from the walk's current
round. The quantum run, the walk, every candidate's resumed rounds and the
final deterministic run read the verifier's one column cache for x; their
strategies read their tapes and declare no `record`, so no run merges histories.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem

from .engine import (
    Configuration, _Class, _check_round, _columns, _measure, _rounds, _verify_and_measure, input_tape, simulate,
)
from .errors import FamilyTooLarge, RunFault, Unbounded, ValidationError
from .specs import (
    BLANK,
    DerandomizedStrategy,
    FixedReplies,
    LoggedReplyStrategy,
    ProtocolSpec,
    ProverSpec,
    constant_reply,
    echo_reply,
    fixed_width_binary_encoding,
    make_track_alphabet,
    parse_track,
    rotation_reply,
    strategy_label,
    track,
    xor_symbols,
)
from .tolerances import AMPLITUDE_TOL, BOUND_TOL, PRUNE_TOL, TIE_TOL

DEFAULT_FAMILY_LIMIT = 10 ** 6


@dataclass(frozen=True)
class StrategyFamily:
    prover_index: int
    label: str
    strategies: tuple


def _sequence_strategy(seq: tuple[str, ...]) -> LoggedReplyStrategy:
    return LoggedReplyStrategy("seq:" + ",".join(seq), FixedReplies(seq))


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
    # the encoding numbers symbols by position, so lower XOR s is the symbol
    # at position[lower] ^ position[s]; a position past the base is an unused
    # code, which `xor_symbols` reports
    by_code = sorted(encoding, key=encoding.__getitem__)
    position = {sym: i for i, sym in enumerate(by_code)}
    strategies = [constant_reply(sym) for sym in track_alphabet]
    strategies.append(echo_reply())
    for s in base:
        if s == BLANK:
            continue
        def shift(step, recv, s=s):
            upper, lower = parse_track(recv)
            code = position[lower] ^ position[s]
            shifted = by_code[code] if code < len(by_code) else xor_symbols(encoding, lower, s)
            return [(track(upper, shifted), 1.0 + 0j)]
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


def _replay(p: ProtocolSpec, x: str, first, combo, T: int):
    """(p_acc, p_rej, leftover) of one combination, its rounds 2..T resumed from the shared round 1."""
    stats = [first[0]] + [stat for stat, _ in _rounds(_trial(p, combo, T), x, first)]
    return sum(s.p_accept for s in stats), sum(s.p_reject for s in stats), stats[-1].residual_mass


class _Round2:
    """Round 2 of a sweep, scored per interference group from the provers' step-1 replies.

    Round 1 runs before any prover moves and the verifier writes no tape, so
    every prover tape of the shared round-1 residual is blank, with at least
    one cell (`_trial`): a slot's local state is its reception. A plain
    `LoggedReplyStrategy` answers it with its reply `fn(1, comm)` and logs it
    in cell 0, a new tape fixed by the reception and different for each. So
    when every reply has weight 1, amplitudes pass the prover stage unchanged
    and a combination's round-2 state follows from its replies alone; a
    strategy whose `fn` is `FixedReplies` is read, not called. A
    combination's round-2 sources are then one state keyed like the driver's
    configurations, with each slot's reception id standing for its logged
    tape, (state, head, replies, local tuple), run through the driver's
    verifier pass (`engine._verify_and_measure`: explicit or guard rows, the
    two-cell head-move check) and `_check_round`, reading the verifier's
    column cache for the tape, as round 1 and every replay of the sweep do,
    so each column is built once per (state, head, reception).

    Sources that share their local tuple (one reception id per slot) form an
    interference group: they receive the same replies. A group whose members'
    guard targets all halt keeps its (mass, p_acc, p_rej) there, measured
    once per sweep. `moves` puts the shared token None in place of a reply
    exactly where that triple is the group's whole round 2 (see there), and
    `score`, which reads one key per slot, takes a group's triple exactly
    when one of its entries is None; every other group's sources go through
    the pass. The sweep scores one combination per tuple of distinct keys.

    `first` is the driver's round-1 class, mass included. `score` returns
    None on anything the round driver would fault on (a missing row, a
    head-move collision, a mass check); the caller then replays that
    combination, which raises the error itself.
    """

    def __init__(self, p: ProtocolSpec, tape, first: _Class):
        self.verifier = v = p.verifier
        self.tape = tape
        self.guard = v.fallback
        residual, _, self.before = first
        n = len(tape)
        self.local_states: list[dict[str, int]] = [{} for _ in range(p.k)]
        # per reception tuple, which fixes the local tuple: its members, in residual order
        members: dict[tuple, list] = {}
        for (q, head, comm, _), amp in residual.items():
            name = self.guard.target(q, tape[head % n]) if self.guard is not None else None
            members.setdefault(comm, []).append((q, head, (head + 1) % n, amp, name))
        halting = v.accept | v.reject
        self.groups = []
        for comm, group in members.items():
            # one reception id per slot, numbered in residual order
            local = tuple([states.setdefault(sent, len(states)) for states, sent in zip(self.local_states, comm)])
            halted = None
            if all(name in halting for *_, name in group):
                # (mass, p_acc, p_rej) with every member moved to its guard target
                out: dict[tuple, complex] = {}
                for _, _, head_next, amp, name in group:
                    out[name, head_next] = out.get((name, head_next), 0j) + amp
                halted = _measure(out.items(), v.is_quantum(), v.accept, v.reject)[:3]
            self.groups.append((local, tuple(group), halted))
        # per slot: the cells that explicit rows receive there, and the local
        # ids where some group does not halt through the guard
        self.row_cells = [{comm[slot] for _, _, comm in v.rows} for slot in range(p.k)]
        self.live = [{local[slot] for local, _, halted in self.groups if halted is None} for slot in range(p.k)]
        self.columns = _columns(v, tape)

    def moves(self, slot: int, strategy):
        """`strategy`'s class key at `slot`: per reception id, its reply or the shared token None.

        Only a plain `LoggedReplyStrategy` (its exact type: a subclass may
        move otherwise) has a key: it is asked only for its reply,
        `fn(1, comm)`, and when `fn` is exactly `FixedReplies`, its step-1
        reply `fn.replies[0]` is every reception's reply, and `fn` is not
        called. A reply is None at a reception exactly when the guard
        rejects it at `slot`, no explicit row of the verifier receives it at
        `slot`, and every group at that reception halts through the guard.
        That is exact: `lookup` then finds no row for any reception that
        holds the reply, and the guard `matches` it, so every member there
        goes to its guard target with weight 1, and each group's mass is its
        halted triple, whatever the other slots send. Two groups differ in
        some slot's logged tape, so no other target meets theirs, even where
        an explicit row aims at a guard-minted state. Equal keys thus run the
        same float operations and score alike bit for bit.
        The whole key is None for any other strategy, or when `fn` branches,
        gives its one reply a weight other than exactly 1 (a phase), replies
        None, or fails on a reception; every combination with it is then
        replayed.
        """
        if type(strategy) is not LoggedReplyStrategy:
            return None
        row_cells, live = self.row_cells[slot], self.live[slot]
        fn = strategy.fn
        fixed = type(fn) is FixedReplies
        key = []
        # the replay raises whatever this raises, so any failure just opts out
        try:
            for local, comm in enumerate(self.local_states[slot]):
                if fixed:
                    reply, amp = fn.replies[0], 1
                else:
                    (reply, amp), = fn(1, comm)
                # a phase opts out, and so does a reply that would read as the token
                if amp != 1 or reply is None:
                    return None
                # a local id halts only through the guard, so the guard is there
                shared = local not in live and reply not in row_cells and self.guard.rejects(slot, reply)
                key.append(None if shared else reply)
        except Exception:
            return None
        return tuple(key)

    def score(self, picks):
        """(p_acc, p_rej, leftover) of round 2 when each slot plays its key in `picks`."""
        after = p_acc = p_rej = 0.0
        state = {}
        for local, group, halted in self.groups:
            comm = tuple(map(getitem, picks, local))
            # a token is minted only where every group halts through the guard: `halted` is set
            if None in comm:
                after += halted[0]
                p_acc += halted[1]
                p_rej += halted[2]
                continue
            for q, head, _, amp, _ in group:
                state[Configuration(q, head, comm, local)] = amp
        try:
            kept, acc, rej, leftover, _, _ = _verify_and_measure(state, self.verifier, self.tape, self.columns)
            _check_round(2, self.before, after + kept, p_acc + acc, p_rej + rej, leftover)
        except RunFault:
            return None
        return p_acc + acc, p_rej + rej, leftover


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

    The first strict optimum in `itertools.product` order is kept. Round 1
    precedes any prover move and is computed once. At every cutoff from 2
    on, each prover's single-move strategies are classed by their
    `_Round2.moves` key, and round 2 is scored once per class tuple, from
    the tuple's keys. A tuple's other combinations score bit for bit alike,
    so the optimum is sought among the first combination of each scored
    tuple and the replayed ones, in product order. Every combination of a
    class tuple that cannot be scored, or that keeps more than PRUNE_TOL
    with rounds left, is replayed, in product order; so is every
    combination at cutoff 1, after a round 1 that leaves at most PRUNE_TOL,
    and without provers.
    `keep_table` expands the class results into one row per combination.
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

    # shared by every combination; the tapes must already have the sweep strategies' logging cells
    stat1, classes = first = next(_rounds(_trial(p, (None,) * p.k, T), x))
    round2 = None
    if families and T >= 2 and stat1.residual_mass > PRUNE_TOL:
        round2 = _Round2(p, input_tape(x, p.verifier), classes[0])
    # per slot: each strategy's class as a small int, each class's members in
    # family order, and its key (None: replayed)
    keys: list[list[int]] = []
    members: list[list[list[int]]] = []
    reps: list[list] = []
    for slot, fam in enumerate(families):
        ids: dict[tuple | None, int] = {}
        keys.append([ids.setdefault(round2 and round2.moves(slot, s), len(ids)) for s in fam.strategies])
        members.append([[] for _ in ids])
        for j, key in enumerate(keys[-1]):
            members[-1][key].append(j)
        reps.append(list(ids))

    # per scored class tuple (one class per slot): (p_acc, p_rej, leftover)
    scores: dict[tuple, tuple] = {}
    replayed = []
    cts = itertools.product(*(range(len(r)) for r in reps))
    for ct, picks in zip(cts, itertools.product(*reps)):
        scored = round2.score(picks) if round2 is not None and None not in picks else None
        if scored is None or (T > 2 and scored[2] > PRUNE_TOL):
            replayed.append(ct)
        else:
            scores[ct] = (stat1.p_accept + scored[0], stat1.p_reject + scored[1], scored[2])
    # every combination of a replayed class tuple, replayed in product order
    outcomes = {}
    replays = (itertools.product(*(m[c] for m, c in zip(members, ct))) for ct in replayed)
    for chosen in sorted(itertools.chain.from_iterable(replays)):
        combo = tuple(fam.strategies[j] for fam, j in zip(families, chosen))
        outcomes[chosen] = _replay(p, x, first, combo, T)

    # the later members of a scored class tuple score as its first one, after
    # which the best value only gets better: none of them can be a strict optimum
    visit = {tuple(m[c][0] for m, c in zip(members, ct)): result for ct, result in scores.items()}
    visit.update(outcomes)
    maximize = objective == "max-accept"
    best = None
    for chosen in sorted(visit):
        total_acc, total_rej, leftover = visit[chosen]
        value = total_acc if maximize else total_rej
        if best is None or (value > best[0] + TIE_TOL if maximize else value < best[0] - TIE_TOL):
            best = (value, chosen, total_acc, total_rej, leftover)

    labels = [[strategy_label(s) for s in fam.strategies] for fam in families]
    table: list[tuple[tuple[str, ...], float, float]] | None = None
    if keep_table:
        # (p_acc, p_rej) per scored class tuple and per replayed combination:
        # two dicts, since a class tuple and a combination can be equal tuples
        scored_pairs = {ct: result[:2] for ct, result in scores.items()}
        replayed_pairs = {chosen: result[:2] for chosen, result in outcomes.items()}
        # (labels, strategy indices, class ids) of every combination, in product order
        rows = zip(*(itertools.product(*column) for column in (labels, [range(len(k)) for k in keys], keys)))
        table = [(names,) + (scored_pairs.get(ct) or replayed_pairs[chosen]) for names, chosen, ct in rows]
    return SearchResult(
        objective=objective,
        best_value=best[0],
        best_labels=tuple(labels[slot][j] for slot, j in enumerate(best[1])),
        best_p_accept=best[2],
        best_p_reject=best[3],
        best_leftover=best[4],
        evaluated=total,
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
    probabilistic branches, so the strategy is `measured`. Each view (step,
    received, tape) is measured once, into `born`, which the run and
    derandomization's candidates and pins all read: a strategy's moves must
    depend only on its view. Amplitudes are summed per (reply, tape), so a
    reply whose amplitudes cancel has no move. The tape per reply must be a
    single basis tape, which holds for every strategy here (tape updates
    only log the received symbol); a strategy that entangles its tape with
    the reply has no deterministic shadow. A pinned view moves by the pinned
    reply's one move with weight 1. The pinning dict is shared and read
    live, so choices accumulate in place.
    """
    kind = "forced"
    measured = True

    def __init__(self, base, fixed: dict):
        self.base = base
        self.fixed = fixed
        self.label = strategy_label(base) + "+forced"
        self.born: dict[tuple, list] = {}

    def apply_quantum(self, step, comm, tape):
        view = (step, comm, tape)
        moves = self.born.get(view)
        if moves is None:
            groups: dict[str, dict[tuple, complex]] = {}
            for (reply, new_tape), amp in self.base.apply_quantum(step, comm, tape):
                tapes = groups.setdefault(reply, {})
                tapes[new_tape] = tapes.get(new_tape, 0j) + complex(amp)
            moves = []
            for reply, tapes in sorted(groups.items()):
                live = [(t, a) for t, a in tapes.items() if abs(a) > AMPLITUDE_TOL]
                if len(live) > 1:
                    raise Unbounded(f"strategy {self.label} entangles its tape with the reply at step {step}")
                for new_tape, amp in live:
                    moves.append(((reply, new_tape), (amp * amp.conjugate()).real))
            self.born[view] = moves
        pinned = self.fixed.get(view)
        if pinned is None:
            return moves
        return [(target, 1.0) for target, _ in moves if target[0] == pinned]


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
    p: ProtocolSpec, x: str, strategies, limit: int | None = None
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
    cap = limit if limit is not None else DEFAULT_FAMILY_LIMIT

    fixed: list[dict] = [{} for _ in range(p.k)]
    wrapped = [_Forced(s, fixed[i]) for i, s in enumerate(strategies)]
    trial = _trial(p, wrapped, p.cutoff)
    quantum_run = simulate(trial, x)

    # provers write only their own slots, so prover i's local states at a step
    # are those of the residual after round `step`; one walk, advanced a round
    # per step, reads them with every choice of earlier steps already pinned and
    # scores each candidate from there, after the rejection summed so far
    decisions = 0
    prefix = 0.0
    for stat, classes in itertools.islice(_rounds(trial, x), p.cutoff - 1):
        step = stat.index
        prefix += stat.p_reject
        for i in range(p.k):
            seen = dict.fromkeys((c.comm[i], c.tapes[i]) for state, _, _ in classes for c in state)
            for sigma, y in seen:
                key = (step, sigma, y)
                candidates = [reply for (reply, _), _ in wrapped[i].apply_quantum(step, sigma, y)]
                decisions += 1
                if decisions > cap:
                    raise Unbounded(f"more than {cap} derandomization decisions")
                if len(candidates) == 1:
                    fixed[i][key] = candidates[0]
                    continue
                best: tuple[float, str] | None = None
                for tau in candidates:
                    fixed[i][key] = tau
                    rest = _rounds(trial, x, (stat, classes))
                    rej = sum((later.p_reject for later, _ in rest), prefix)
                    if best is None or rej < best[0] - TIE_TOL:
                        best = (rej, tau)
                fixed[i][key] = best[1]

    out = tuple(DerandomizedStrategy(choices=dict(fixed[i])) for i in range(p.k))
    det_run = simulate(_trial(p, out, p.cutoff), x)
    report = DerandomizeReport(
        quantum_p_accept=quantum_run.p_accept,
        quantum_p_reject=quantum_run.p_reject,
        derandomized_p_accept=det_run.p_accept,
        derandomized_p_reject=det_run.p_reject,
        decisions=decisions,
    )
    return out, report
