"""The three benchmark workloads: inputs from a seed, timed ops, output oracles.

Each workload is built from `(seed, seconds, min_ops)`; the seed may be any
string. Building it is set-up; `op(i)` is one timed operation and
`check(i, result)` is its oracle, run outside the timed region. `seconds`
fixes the amount of work, not a deadline: a workload does the number of ops
that took about that long at reference speed (see NOTES.md), so a faster
program finishes the same work sooner and `wall_s` shows it.

Every op goes through module attributes (`engine.simulate`, ...) so that the
tracer's shims see it. Inside timed regions the transforms are called
directly, never through the lru-cached corpus builders.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from qmipsim import adversary, corpus, engine, fileformat, specs, transforms

EXACT = 1e-12
BOUND = 1e-9
# explicit sweep and derandomization caps, so QMIP_FAMILY_LIMIT cannot change a run
DERANDOMIZE_LIMIT = 10 ** 6


def configs_entering_rounds(result) -> int:
    """Configurations carried into each executed round of one run."""
    return 1 + sum(stat.configurations for stat in result.rounds[:-1])


def trial_protocol(p, strategies):
    """`p` with one public ProverSpec per strategy, shaped as `search` builds them."""
    space = max(1, p.cutoff)
    provers = tuple(
        specs.ProverSpec(
            index=i + 1,
            comm_alphabet=p.verifier.comm_alphabets[i],
            tape_alphabet=p.verifier.comm_alphabets[i],
            space=space,
            strategy=strategy,
        )
        for i, strategy in enumerate(strategies)
    )
    return specs.ProtocolSpec(p.name, p.verifier, provers, p.a, p.b, p.cutoff)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT


class Sweep:
    """Seeded sub-sweeps of the reduced no-communication protocol's track probes."""

    name = "sweep"
    NOMINAL_OP_S = 0.08
    PER_PROVER = 16
    INPUT = "0"
    CHECKED_ENTRIES = 2

    def __init__(self, seed: str, seconds: float, min_ops: int = 1):
        self.seed = seed
        self.protocol = corpus.no_comm_reduce()
        full = adversary.default_families(self.protocol)
        rng = random.Random(seed)
        self.n_ops = max(min_ops, round(seconds / self.NOMINAL_OP_S))
        self.families = [
            tuple(
                adversary.StrategyFamily(f.prover_index, f.label, tuple(rng.sample(f.strategies, self.PER_PROVER)))
                for f in full
            )
            for _ in range(self.n_ops)
        ]
        self.limit = self.PER_PROVER ** len(full)
        # round 1 precedes every prover move, so every combination carries
        # the same residual into round 2
        first = trial_protocol(self.protocol, tuple(f.strategies[0] for f in self.families[0]))
        self.residual = engine.simulate(first, self.INPUT).rounds[0].configurations

    def op(self, i: int):
        return adversary.search(
            self.protocol, self.INPUT, families=self.families[i], objective="max-accept",
            limit=self.limit, keep_table=True,
        )

    def units(self, result) -> tuple[int, int]:
        """(strategy combinations, configurations entering a round)."""
        return result.evaluated, 1 + result.evaluated * self.residual

    def check(self, i: int, result) -> list[str]:
        problems = []
        families = self.families[i]
        if result.best_value > 0.5 + BOUND:
            problems.append(f"sub-sweep {i}: best accept {result.best_value!r} beats 1/2")
        want = 1
        for fam in families:
            want *= len(fam.strategies)
        if result.evaluated != want or result.table is None or len(result.table) != want:
            problems.append(f"sub-sweep {i}: evaluated {result.evaluated}, expected {want}")
            return problems
        rng = random.Random(f"{self.seed}/{i}")
        width = len(families[1].strategies)
        for index in rng.sample(range(want), self.CHECKED_ENTRIES):
            combo = (families[0].strategies[index // width], families[1].strategies[index % width])
            labels, acc, rej = result.table[index]
            rerun = engine.simulate(trial_protocol(self.protocol, combo), self.INPUT)
            if labels != tuple(s.label for s in combo) or not (
                _close(acc, rerun.p_accept) and _close(rej, rerun.p_reject)
            ):
                problems.append(
                    f"sub-sweep {i} entry {index} {labels}: ({acc!r}, {rej!r}) but simulate gives "
                    f"({rerun.p_accept!r}, {rerun.p_reject!r})"
                )
        return problems


class WideState:
    """`simulate` of the reduced parity relay, where configurations grow 16x per round."""

    name = "widestate"
    NOMINAL_CYCLE_S = 5.5
    # one cycle: the inputs below in a seeded order
    CYCLE = {"111": 1, "11": 6, "1": 12}

    def __init__(self, seed: str, seconds: float, min_ops: int = 1):
        self.base = corpus.parity_relay()
        lifted = transforms.lift_2ip_to_3qip(self.base).protocol
        self.protocol = transforms.reduce_3qip_to_2qip(transforms.unify_alphabets(lifted)).protocol
        rng = random.Random(seed)
        cycle = [x for x, n in self.CYCLE.items() for _ in range(n)]
        self.inputs = []
        for _ in range(max(-(-min_ops // len(cycle)), round(seconds / self.NOMINAL_CYCLE_S))):
            rng.shuffle(cycle)
            self.inputs.extend(cycle)
        self.n_ops = len(self.inputs)
        self._reference: dict[str, object] = {}

    def op(self, i: int):
        return engine.simulate(self.protocol, self.inputs[i])

    def units(self, result) -> tuple[int, int]:
        return 0, configs_entering_rounds(result)

    def check(self, i: int, result) -> list[str]:
        x = self.inputs[i]
        if x not in self._reference:
            self._reference[x] = engine.simulate(self.base, x)
        ref = self._reference[x]
        for field in ("p_accept", "p_reject", "leftover"):
            got, want = getattr(result, field), getattr(ref, field)
            if not _close(got, want):
                return [f"input {x!r}: {field} {got!r}, classical run gives {want!r}"]
        return []


@dataclass
class PipelineItem:
    protocols: tuple
    well_formed: tuple
    restrictive: bool
    parsed: tuple
    runs: tuple
    report: adversary.DerandomizeReport


class Pipeline:
    """The quick-start flow: transforms, checks, file round-trips, runs, derandomization."""

    name = "pipeline"
    NOMINAL_ITEM_S = 0.009
    # (base protocol, inputs); the reduced protocol stays at <= 256 configurations
    BASES = (("no_comm", ("0", "00")), ("parity_relay", ("", "1")))

    def __init__(self, seed: str, seconds: float, min_ops: int = 1):
        builders = {"no_comm": corpus.no_communication, "parity_relay": corpus.parity_relay}
        self.bases = {name: builders[name]() for name, _ in self.BASES}
        deck = [(name, x, sign) for name, inputs in self.BASES for x in inputs for sign in (+1, -1)]
        rng = random.Random(seed)
        self.items = []
        for _ in range(max(-(-min_ops // len(deck)), round(seconds / (self.NOMINAL_ITEM_S * len(deck))))):
            rng.shuffle(deck)
            self.items.extend(deck)
        self.n_ops = len(self.items)

    def op(self, i: int) -> PipelineItem:
        name, x, sign = self.items[i]
        base = self.bases[name]
        lifted = transforms.lift_2ip_to_3qip(base).protocol
        unified = transforms.unify_alphabets(lifted)
        reduced = transforms.reduce_3qip_to_2qip(unified).protocol
        protocols = (base, lifted, unified, reduced)
        for p in protocols:
            specs.validate_protocol(p)
        well_formed = tuple(specs.check_well_formed(p.verifier).ok for p in protocols)
        restrictive = specs.check_restrictive(lifted.verifier)
        parsed = tuple(fileformat.parse_protocol(fileformat.serialize_protocol(p)) for p in protocols)
        runs = tuple(engine.simulate(p, x) for p in protocols)
        first, second = (prover.comm_alphabet for prover in base.provers)
        strategies = (specs.rotation_reply(first[0], first[1], sign), specs.constant_reply(second[0]))
        _, report = adversary.derandomize_provers(base, x, strategies, limit=DERANDOMIZE_LIMIT)
        return PipelineItem(protocols, well_formed, restrictive, parsed, runs, report)

    def units(self, result: PipelineItem) -> tuple[int, int]:
        return 0, sum(configs_entering_rounds(run) for run in result.runs)

    def check(self, i: int, result: PipelineItem) -> list[str]:
        name, x, sign = self.items[i]
        where = f"item {i} ({name}, {x!r}, {sign:+d})"
        problems = []
        if not all(result.well_formed) or not result.restrictive:
            problems.append(f"{where}: a checker failed: {result.well_formed}, restrictive {result.restrictive}")
        for p, back in zip(result.protocols, result.parsed):
            if back != p:
                problems.append(f"{where}: {p.name} does not round-trip")
        ref = result.runs[0]
        for run in result.runs[1:]:
            if not (_close(run.p_accept, ref.p_accept) and _close(run.p_reject, ref.p_reject)):
                problems.append(
                    f"{where}: {run.mode} run gives ({run.p_accept!r}, {run.p_reject!r}), "
                    f"base gives ({ref.p_accept!r}, {ref.p_reject!r})"
                )
        if not result.report.dominated:
            problems.append(f"{where}: derandomization is not dominated: {result.report}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Sweep, WideState, Pipeline)}
