"""Adversarial strategy search and prover derandomization.

Soundness claims quantify over all prover strategies, which no finite run can
cover. What a desk-scale tool can do is sweep structured families that
contain every strategy worth trying at these sizes: constant replies, full
reply sequences, echoes, and mask-track probes. A sweep is one tree of runs
of the engine's round driver whose nodes carry sets of combinations. Round 1
precedes any prover move, so it is run once, for all of them. At each later
round a node splits each prover's strategies into classes by their moves on
its configurations, and each block of the product of those classes runs the
round once, with its first combination, into a child node. Every built-in
strategy is a plain `LoggedReplyStrategy`, whose move is its reply
`fn(step, received)` plus the reception logged on its tape
(`specs.log_reception`): the new tape is fixed by the prover's local state
(cell, tape), whatever the reply, so a strategy's replies per local state
are its class key. Constants and reply sequences are asked only once per
round: their `fn` is `specs.FixedReplies`, data that ignores the reception.
Sources that share every prover's local state form an interference group,
and a group that the guard sends wholly to a halting state keeps a triple
measured once per node. A key holds one shared token, None, for a reply
that the guard rejects at its slot, that no explicit row receives there,
and whose local state's groups all halt through the guard: that reply only
ever takes those triples, so a block takes them for the groups where it
holds the token, and its driver round runs the rest. Any other strategy
(subclasses included, one that branches, as rotations do, puts a phase on
its reply, or fails) is a class of its own, and in its blocks no token
counts. The driver's own checks cover every round, its verifier pass merges
the histories of logged strategies by their tapes (their `record`), and a
fault is the run's own error, raised for the first faulting combination.
Every round of the tree, round 1 included, reads the verifier's one column
cache, keyed by scanned symbol and shared by inputs (`engine._columns`).

Derandomization goes the other way: given quantum provers attacking a
probabilistic verifier, it distills deterministic provers that reject at
most as often. The verifier reads each communication cell every round, so
the cell is effectively measured: each prover's move becomes probabilistic
branches with Born weights (`_Forced`, declared `measured`), and the run
goes through the engine's round driver like any classical run. Each view
(step, received symbol, tape) is measured once per derandomization, and the
runs, the candidate replies and the pins all read that table; a pinned view
moves by the pinned reply's move with weight 1. The distilled tables log
each reception (`specs.log_reception`), so every measured move must write
its view's logged tape; a strategy that writes any other is refused.
Picking, per reachable view, the candidate with the smallest aggregate
rejection mass can only help the provers at each replacement, which gives
the dominance guarantee. Each candidate reply is scored by resuming the
driver from the walk's current round. The quantum run, the walk, every
candidate's resumed rounds and the final deterministic run read the
verifier's one column cache; their strategies read their tapes and declare
no `record`, so no run merges histories.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import getitem

from .engine import RoundStat, _Class, _check_round, _measure, _rounds, input_tape, simulate
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
    log_reception,
    make_track_alphabet,
    parse_track,
    rotation_reply,
    strategy_label,
    symbol_xor,
    track,
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
    xor = symbol_xor(base)
    strategies = [constant_reply(sym) for sym in track_alphabet]
    strategies.append(echo_reply())
    for s in base:
        if s == BLANK:
            continue
        def shift(step, recv, s=s):
            upper, lower = parse_track(recv)
            return [(track(upper, xor(lower, s)), 1.0 + 0j)]
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


class _Stage:
    """Round j+1 of a sweep node, per interference group, from its strategies' step-j replies.

    A node is (j, classes, accept and reject sums, residual mass): its
    classes are the driver's (`engine._Class`), left by its last round. A
    slot's local state is its (cell, tape), numbered per slot across the
    classes. A plain `LoggedReplyStrategy` answers it with `fn(j, cell)` and
    logs the cell in the tape's blank cell j - 1, a new tape fixed by the
    local state and different for each, whatever the reply. Such a
    strategy's tape is always its log, in every run that moves it. So
    sources of one class that share their local tuple, an interference
    group, receive the same replies and leave on one new tape, which no
    other group's sources share.

    A group whose members' guard targets all halt keeps its (mass, p_acc,
    p_rej) there. `key` puts the shared token None in place of a reply
    exactly where that triple is the group's whole round (see there), and
    `run` takes a group's triple, times its class's multiplicity, exactly
    when the block's key holds the token at one of its slots. Every other
    group runs one round of the engine's round driver: a block of
    combinations with equal keys is one driver round at most.
    """

    def __init__(self, p: ProtocolSpec, x: str, families, T: int, node: tuple):
        self.p, self.x, self.families, self.T, self.node = p, x, families, T, node
        self.step, classes = node[:2]
        v, tape = p.verifier, input_tape(x, p.verifier)
        guard = self.guard = v.fallback
        n, halting = len(tape), v.accept | v.reject
        self.local_states: list[dict[tuple, int]] = [{} for _ in range(p.k)]
        # (class index, local tuple, {source: amp}, halted triple or None), in residual order
        self.groups = []
        for c, (state, _) in enumerate(classes):
            members: dict[tuple, dict] = {}
            for config, amp in state.items():
                members.setdefault(config[2:], {})[config] = amp
            for cells, group in members.items():
                local = tuple([ids.setdefault(pair, len(ids)) for ids, pair in zip(self.local_states, zip(*cells))])
                # (mass, p_acc, p_rej) with every member moved to its guard target, if each halts there
                halted, out = None, {}
                for (q, head, _, _), amp in group.items():
                    name = guard and guard.target(q, tape[head % n])
                    if name not in halting:
                        break
                    out[name, (head + 1) % n] = out.get((name, (head + 1) % n), 0j) + amp
                else:
                    halted = _measure(out.items(), v.is_quantum(), v.accept, v.reject)[:3]
                self.groups.append((c, local, group, halted))
        # per slot: the cells that explicit rows receive there, and the local
        # ids where some group does not halt through the guard
        self.row_cells = [{comm[slot] for _, _, comm in v.rows} for slot in range(p.k)]
        self.live = [{local[slot] for _, local, _, halted in self.groups if halted is None} for slot in range(p.k)]

    def key(self, slot: int, strategy):
        """`strategy`'s class key at `slot`: per local id, its reply or the shared token None.

        Only a plain `LoggedReplyStrategy` (its exact type: a subclass may
        move otherwise) has a key: it is asked only for its reply, and when
        `fn` is exactly `FixedReplies`, whose reply is the same at every
        local state, only once. A reply is None at a local id exactly when
        the guard rejects it at `slot`, no explicit row of the verifier
        receives it at `slot`, and every group at that local id halts
        through the guard. That is exact: `lookup` then finds no row for any
        reception that holds the reply, and the guard `matches` it, so every
        member there goes to its guard target with weight 1, and each
        group's mass is its halted triple, whatever the other slots send.
        Two groups differ in some slot's logged tape, so no other target
        meets theirs, even where an explicit row aims at a guard-minted
        state. Equal keys thus run the same float operations and score alike
        bit for bit.
        Any other strategy, or one whose `fn` branches, gives its one reply a
        weight other than exactly 1 (a phase), replies None, or fails on a
        local state, opts out: its key is a new object, equal to no other.
        """
        if type(strategy) is not LoggedReplyStrategy:
            return object()
        row_cells, live, fn, n = self.row_cells[slot], self.live[slot], strategy.fn, len(self.local_states[slot])
        key = []
        # its run raises whatever this raises, so any failure just opts out
        try:
            if type(fn) is FixedReplies:
                (reply, _), = fn(self.step, None)
                # some local id halts only through the guard, so the guard is there
                if reply is not None and len(live) < n and reply not in row_cells and self.guard.rejects(slot, reply):
                    return tuple([reply if local in live else None for local in range(n)])
                return object() if reply is None else (reply,) * n
            for local, (cell, _) in enumerate(self.local_states[slot]):
                (reply, amp), = fn(self.step, cell)
                # a phase opts out, and so does a reply that would read as the token
                if amp != 1 or reply is None:
                    return object()
                shared = local not in live and reply not in row_cells and self.guard.rejects(slot, reply)
                key.append(None if shared else reply)
        except Exception:
            return object()
        return tuple(key)

    def run(self, tag, picks) -> tuple:
        """The child node of the block of `tag`'s combinations.

        `picks` is the block's key per slot. The groups where a key holds
        the token add their halted triples; the others run one round of the
        driver with the first combination, resumed from the node less those
        triples, whose checks cover the whole round and whose survivors come
        back merged by their records. When every group halts, `_check_round`
        checks the triples alone. A round that faults, or leaves the driver
        at most PRUNE_TOL, while tokens count runs again with none, so that a
        fault is the run's own.
        `picks` is None for a block with an opt-out, whose moves may merge
        groups: then every group runs through the driver, which stands for
        each combination of the block. Where their keys hold the token, each
        one's replies send the same sources to the same guard targets with
        weight 1 (the guard echoes them, but they all halt), so their masses,
        merged or not, are the first combination's.
        """
        j, classes, acc, rej, mass = self.node
        after = h_acc = h_rej = 0.0
        live = classes
        if picks is not None:
            states = [{} for _ in classes]
            for c, local, group, halted in self.groups:
                if None not in map(getitem, picks, local):
                    states[c].update(group)
                    continue
                multiplicity = classes[c].multiplicity
                after += multiplicity * halted[0]
                h_acc += multiplicity * halted[1]
                h_rej += multiplicity * halted[2]
            live = [cls if len(state) == len(cls.state) else _Class(state, cls.multiplicity)
                    for state, cls in zip(states, classes) if state]
        try:
            if not live:
                _check_round(j + 1, mass, after, h_acc, h_rej, 0.0)
                return j + 1, [], acc + h_acc, rej + h_rej, 0.0
            trial = _trial(self.p, [fam.strategies[m[0]] for fam, m in zip(self.families, tag)], self.T)
            stat, survivors = next(_rounds(trial, self.x, (RoundStat(j, 0.0, 0.0, mass - after, 0, 0), live)))
        except (RunFault, StopIteration):
            if picks is None:
                raise
            return self.run(tag, None)
        return j + 1, survivors, acc + (h_acc + stat.p_accept), rej + (h_rej + stat.p_reject), stat.residual_mass


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

    The sweep is one tree of runs. Its root is round 1, which precedes any
    prover move and is run once for every combination. At each later round
    a node splits each slot's strategies by their `_Stage.key` on its local
    states, and each block of the product of the splits, combinations that
    move alike, runs the round once (`_Stage.run`) into a child node. Blocks
    run in product order of their first combinations, so a fault is the
    first faulting combination's own. A node that reaches the cutoff or
    keeps at most PRUNE_TOL is a leaf, and all its combinations score bit
    for bit alike, so the first strict optimum in `itertools.product` order
    is sought among the leaves' first combinations. `keep_table` expands
    each leaf into one row per combination.
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
    total = math.prod(len(fam.strategies) for fam in families)
    if total > cap:
        sizes = "x".join(str(len(f.strategies)) for f in families)
        raise FamilyTooLarge(f"{sizes} = {total} combinations exceeds the limit of {cap}")

    # shared by every combination; the tapes must already have the sweep strategies' logging cells
    stat1, classes = next(_rounds(_trial(p, (None,) * p.k, T), x))
    # a tag holds per slot a tuple of strategy indices; a node is (its last round, its classes,
    # its accept and reject sums, its residual mass)
    tag = tuple(tuple(range(len(fam.strategies))) for fam in families)
    node = (1, classes, stat1.p_accept, stat1.p_reject, stat1.residual_mass)
    pending = []  # blocks (first combination, tag, stage, picks), least first combination first
    leaves = []  # (tag, (p_acc, p_rej), leftover), in product order of their first combinations
    while True:
        j, classes, acc, rej, mass = node
        if j == T or mass <= PRUNE_TOL:
            leaves.append((tag, (acc, rej), mass))
        else:
            stage = _Stage(p, x, families, T, node)
            splits = []
            for slot, indices in enumerate(tag):
                split: dict = {}
                for i in indices:
                    split.setdefault(stage.key(slot, families[slot].strategies[i]), []).append(i)
                splits.append(list(split.items()))
            for block in itertools.product(*splits):
                # with an opt-out, no token counts (`_Stage.run`)
                picks = tuple(key for key, _ in block)
                picks = picks if all(type(key) is tuple for key in picks) else None
                heapq.heappush(pending, (tuple(m[0] for _, m in block), tuple(m for _, m in block), stage, picks))
        if not pending:
            break
        _, tag, stage, picks = heapq.heappop(pending)
        node = stage.run(tag, picks)

    maximize = objective == "max-accept"
    best = None
    for tag, (total_acc, total_rej), leftover in leaves:
        value = total_acc if maximize else total_rej
        if best is None or (value > best[0] + TIE_TOL if maximize else value < best[0] - TIE_TOL):
            best = (value, tuple(m[0] for m in tag), total_acc, total_rej, leftover)

    labels = [[strategy_label(s) for s in fam.strategies] for fam in families]
    table: list[tuple[tuple[str, ...], float, float]] | None = None
    if keep_table:
        # a combination's index in product order: its strategy indices times their slots' strides, summed
        strides = [math.prod(len(fam.strategies) for fam in families[slot + 1:]) for slot in range(p.k)]
        pairs = [None] * total
        for tag, pair, _ in leaves:
            for index in map(sum, itertools.product(*([i * stride for i in t] for t, stride in zip(tag, strides)))):
                pairs[index] = pair
        table = [(names,) + pair for names, pair in zip(itertools.product(*labels), pairs)]
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
    depend only on its view. Amplitudes are summed per reply, so a reply
    whose amplitudes cancel has no move. Every move must write the view's
    logged tape (`log_reception`), the one tape `DerandomizedStrategy`
    replays; a move that writes any other tape, such as a work cell or a
    tape entangled with the reply, is refused as `Unbounded`. A pinned view
    moves by the pinned reply's one move with weight 1. The pinning dict is
    shared and read live, so choices accumulate in place.
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
            logged = log_reception(tape, step, comm, "strategy", self.label)
            amps: dict[str, complex] = {}
            for (reply, new_tape), amp in self.base.apply_quantum(step, comm, tape):
                if new_tape != logged:
                    raise Unbounded(f"strategy {self.label} writes {new_tape} at step {step}, "
                                    f"not its logged tape {logged}")
                amps[reply] = amps.get(reply, 0j) + complex(amp)
            moves = [((reply, logged), (a * a.conjugate()).real)
                     for reply, a in sorted(amps.items()) if abs(a) > AMPLITUDE_TOL]
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
            seen = dict.fromkeys((c.comm[i], c.tapes[i]) for state, _ in classes for c in state)
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
