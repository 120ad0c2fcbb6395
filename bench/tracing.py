"""Per-layer timing shims around the public functions of the qmipsim modules.

A `Tracer` replaces module functions and class methods with thin wrappers
that count calls and time them, and puts every original back on `remove()`.
Nothing inside `src/` changes: a function imported by name into several
modules (say `apply_sparse_operator` in `engine` and `adversary`) is
replaced at every binding, so internal calls are seen too.

Workers install a tracer and send `raw()` home; `run.py` sums the shards
with `merged()` and reads the metrics, without importing qmipsim itself.

Times are inclusive and cover the outermost call of a name only: a strategy
whose `apply_classical` calls its own `apply_quantum` counts once. Spans
nest, so a span's self time is its inclusive time minus the spans directly
inside it; `norm_sq` is kept out of that subtraction so that
`engine.run_round.self_s` includes the mass checks it performs.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

STRATEGY_CLASSES = (
    "EraserStrategy",
    "ClassicalTableStrategy",
    "ReversibleWrapStrategy",
    "TrackWrapStrategy",
    "UnitaryTableStrategy",
    "LoggedReplyStrategy",
    "DerandomizedStrategy",
)
CHECKERS = (
    "validate_protocol",
    "check_well_formed",
    "check_restrictive",
    "restrictive_violations",
    "fair_coin_violations",
    "check_prover_columns",
)

# per-layer metric -> (unit, how it is read off a Tracer)
PER_LAYER = {
    "engine.run_round.calls": ("count", lambda t: t.calls["engine.run_round"]),
    "engine.run_round.self_s": ("s", lambda t: t.self_seconds("engine.run_round")),
    "engine.prover_stage_s": ("s", lambda t: t.seconds["engine.prover_stage"]),
    "engine.verifier_stage_s": ("s", lambda t: t.seconds["engine.verifier_stage"]),
    "engine.simulate_s": ("s", lambda t: t.seconds["engine.simulate"]),
    "amplitudes.apply.calls": ("count", lambda t: t.calls["amplitudes.apply"]),
    "amplitudes.apply.sources": ("count", lambda t: t.counts["amplitudes.apply.sources"]),
    "amplitudes.apply.targets": ("count", lambda t: t.counts["amplitudes.apply.targets"]),
    "amplitudes.prune_s": ("s", lambda t: t.seconds["amplitudes.prune"]),
    "amplitudes.prune.dropped": ("count", lambda t: t.counts["amplitudes.prune.dropped"]),
    "amplitudes.norm_sq_s": ("s", lambda t: t.seconds["amplitudes.norm_sq"]),
    "specs.lookup.calls": ("count", lambda t: t.calls["specs.lookup"]),
    "specs.lookup_s": ("s", lambda t: t.seconds["specs.lookup"]),
    "specs.lookup.guard_ratio": ("ratio", lambda t: t.ratio("specs.guard", "specs.lookup")),
    "specs.parse_track.calls": ("count", lambda t: t.calls["specs.parse_track"]),
    "specs.strategy.calls": ("count", lambda t: t.calls["specs.strategy"]),
    "specs.strategy_s": ("s", lambda t: t.seconds["specs.strategy"]),
    "specs.check_s": ("s", lambda t: t.seconds["specs.check"]),
    "adversary.search_s": ("s", lambda t: t.seconds["adversary.search"]),
    "adversary.combos": ("count", lambda t: t.counts["adversary.combos"]),
    "adversary.default_families_s": ("s", lambda t: t.seconds["adversary.default_families"]),
    "adversary.derandomize_s": ("s", lambda t: t.seconds["adversary.derandomize"]),
    "adversary.derandomize.decisions": ("count", lambda t: t.counts["adversary.derandomize.decisions"]),
    "transforms.lift_s": ("s", lambda t: t.seconds["transforms.lift"]),
    "transforms.unify_s": ("s", lambda t: t.seconds["transforms.unify"]),
    "transforms.reduce_s": ("s", lambda t: t.seconds["transforms.reduce"]),
    "fileformat.serialize_s": ("s", lambda t: t.seconds["fileformat.serialize"]),
    "fileformat.parse_s": ("s", lambda t: t.seconds["fileformat.parse"]),
    "fileformat.bytes": ("count", lambda t: t.counts["fileformat.bytes"]),
}
# metrics that must repeat exactly across two traced runs of one seed
COUNT_METRICS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit == "count")

_STAGE_ATTR = "_bench_stage"


class Tracer:
    """Counters and span timers for one traced run; install, run, remove."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.child_seconds: defaultdict = defaultdict(float)
        self.active = True
        self._open: set[str] = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- reading ------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return self.seconds[name] - self.child_seconds[name]

    def ratio(self, part: str, whole: str) -> float:
        return self.calls[part] / self.calls[whole] if self.calls[whole] else 0.0

    def metrics(self) -> dict[str, dict]:
        return {name: {"value": read(self), "unit": unit} for name, (unit, read) in PER_LAYER.items()}

    def raw(self) -> dict[str, dict]:
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
            "child_seconds": dict(self.child_seconds),
        }

    @classmethod
    def merged(cls, raws: list[dict]) -> "Tracer":
        """A tracer holding the sums of several `raw()` records."""
        out = cls()
        for raw in raws:
            out.calls.update(raw["calls"])
            out.counts.update(raw["counts"])
            for name, value in raw["seconds"].items():
                out.seconds[name] += value
            for name, value in raw["child_seconds"].items():
                out.child_seconds[name] += value
        return out

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, nested: bool = True, after=None):
        """Time the outermost call of `name`; `after(result, args, elapsed)` may add counts."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.active or name in tracer._open:
                return fn(*args, **kwargs)
            tracer._open.add(name)
            frame = [0.0]
            tracer._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._stack.pop()
                tracer._open.discard(name)
                tracer.calls[name] += 1
                tracer.seconds[name] += elapsed
                tracer.child_seconds[name] += frame[0]
                if nested and tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if after is not None:
                after(result, args, elapsed)
            return result

        return shim

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return shim

    def _tagging(self, stage: str, factory):
        """Operator factory whose ops carry the stage they belong to."""
        @functools.wraps(factory)
        def shim(*args, **kwargs):
            op = factory(*args, **kwargs)
            setattr(op, _STAGE_ATTR, stage)
            return op

        return shim

    def _after_apply(self, result, args, elapsed):
        op, state = args[0], args[1]
        self.counts["amplitudes.apply.sources"] += len(state)
        self.counts["amplitudes.apply.targets"] += len(result)
        stage = getattr(op, _STAGE_ATTR, None)
        if stage is not None:
            self.seconds[f"engine.{stage}_stage"] += elapsed

    def _after_prune(self, result, args, elapsed):
        self.counts["amplitudes.prune.dropped"] += len(args[0]) - len(result)

    def _after_search(self, result, args, elapsed):
        self.counts["adversary.combos"] += result.evaluated

    def _after_derandomize(self, result, args, elapsed):
        self.counts["adversary.derandomize.decisions"] += result[1].decisions

    def _after_serialize(self, result, args, elapsed):
        self.counts["fileformat.bytes"] += len(result.encode("utf-8"))

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        from qmipsim import adversary, amplitudes, engine, fileformat, specs, transforms

        if self._patches:
            raise RuntimeError("tracer is already installed")
        functions = [
            (engine.run_round, self.span("engine.run_round", engine.run_round)),
            (engine.simulate, self.span("engine.simulate", engine.simulate)),
            (engine.prover_operator, self._tagging("prover", engine.prover_operator)),
            (engine.verifier_operator, self._tagging("verifier", engine.verifier_operator)),
            (amplitudes.apply_sparse_operator,
             self.span("amplitudes.apply", amplitudes.apply_sparse_operator, after=self._after_apply)),
            (amplitudes.prune, self.span("amplitudes.prune", amplitudes.prune, after=self._after_prune)),
            (amplitudes.norm_sq, self.span("amplitudes.norm_sq", amplitudes.norm_sq, nested=False)),
            (specs.parse_track, self.counter("specs.parse_track", specs.parse_track)),
            (adversary.search, self.span("adversary.search", adversary.search, after=self._after_search)),
            (adversary.default_families,
             self.span("adversary.default_families", adversary.default_families)),
            (adversary.derandomize_provers,
             self.span("adversary.derandomize", adversary.derandomize_provers,
                       after=self._after_derandomize)),
            (transforms.lift_2ip_to_3qip, self.span("transforms.lift", transforms.lift_2ip_to_3qip)),
            (transforms.unify_alphabets, self.span("transforms.unify", transforms.unify_alphabets)),
            (transforms.reduce_3qip_to_2qip, self.span("transforms.reduce", transforms.reduce_3qip_to_2qip)),
            (fileformat.serialize_protocol,
             self.span("fileformat.serialize", fileformat.serialize_protocol, after=self._after_serialize)),
            (fileformat.parse_protocol, self.span("fileformat.parse", fileformat.parse_protocol)),
        ]
        functions += [(getattr(specs, name), self.span("specs.check", getattr(specs, name))) for name in CHECKERS]
        methods = [(specs.VerifierSpec, "lookup", self.span("specs.lookup", specs.VerifierSpec.lookup))]
        for cls in (specs.TrackGuard, specs.ForeignGuard):
            methods.append((cls, "emit", self.counter("specs.guard", cls.emit)))
        for cls in (getattr(specs, name) for name in STRATEGY_CLASSES):
            for attr in ("apply_quantum", "apply_classical"):
                methods.append((cls, attr, self.span("specs.strategy", cls.__dict__[attr])))
        try:
            for original, shim in functions:
                self._replace_everywhere(original, shim)
            for cls, attr, shim in methods:
                self._patch(cls, attr, shim)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, shim) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, shim)

    def _replace_everywhere(self, original, shim) -> None:
        """Rebind every qmipsim module attribute that names `original`."""
        for module in qmipsim_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, shim)


def qmipsim_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "qmipsim" or name.startswith("qmipsim."))
    ]
