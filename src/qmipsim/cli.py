"""Command line interface.

One protocol file in, one action per process. Exit codes: 0 success,
1 comparison mismatch, 2 file or syntax problems, 3 validation failures,
4 faults during a run (missing transitions, blown limits).

The last stdout line of `run` is always `p_acc=<value>` with nine decimal
places; `--machine` switches every command to stable key=value lines for
scripting.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import adversary as adv
from . import corpus as corpus_mod
from .engine import RunResult, simulate
from .errors import AlphabetMismatch, RunFault, SpecFileError, ValidationError
from .fileformat import load_protocol, save_protocol
from .specs import ProtocolSpec, check_well_formed, validate_protocol
from .tolerances import BOUND_TOL
from .transforms import lift_2ip_to_3qip, reduce_3qip_to_2qip, unify_alphabets


def _load_checked(path: str) -> ProtocolSpec:
    p = load_protocol(path)
    validate_protocol(p)
    return p


def _require_well_formed(p: ProtocolSpec) -> None:
    report = check_well_formed(p.verifier)
    if not report.ok:
        raise ValidationError(report.violations[0])


def _rowkey_str(key) -> str:
    q, sigma, comm = key
    return f"{q} {sigma} | " + " ".join(comm)


def _write_provenance(path: str, source: ProtocolSpec, out, **maps) -> None:
    """The provenance JSON of the transform output `out` from `source`: its rows' sources, then `maps`."""
    rows = {_rowkey_str(k): _rowkey_str(v) for k, v in out.row_provenance.items()}
    doc = {"source": source.name, "protocol": out.protocol.name, "rows": rows, **maps}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, ensure_ascii=False)


def cmd_validate(args) -> int:
    p = _load_checked(args.file)
    report = check_well_formed(p.verifier)
    if args.machine:
        print(f"name={p.name}")
        print(f"mode={p.verifier.mode}")
        print(f"provers={p.k}")
        print(f"rows={len(p.verifier.rows)}")
        print(f"ok={'true' if report.ok else 'false'}")
        for v in report.violations:
            print(f"violation={v}")
    else:
        print(f"protocol {p.name}: mode {p.verifier.mode}, {p.k} provers, {len(p.verifier.rows)} rows")
        if report.ok:
            print("well-formed: yes")
        else:
            print("well-formed: no")
            for v in report.violations:
                print(f"  {v}")
    return 0 if report.ok else 3


def _print_run(result: RunResult, machine: bool, trace: bool) -> None:
    if machine:
        print(f"name={result.protocol}")
        print(f"input={result.input}")
        print(f"mode={result.mode}")
        print(f"rounds={len(result.rounds)}")
        print(f"halted={result.halted_round if result.halted_round is not None else 'none'}")
        print(f"steps={result.steps_counted}")
        if trace:
            for st in result.rounds:
                print(
                    f"round.{st.index}.accept={st.p_accept:.9f}"
                    f" round.{st.index}.reject={st.p_reject:.9f}"
                    f" round.{st.index}.residual={st.residual_mass:.9f}"
                    f" round.{st.index}.configs={st.configurations}"
                    f" round.{st.index}.stored={st.stored}"
                )
    else:
        print(f"protocol {result.protocol} on input {result.input!r} (mode {result.mode})")
        if trace:
            for st in result.rounds:
                print(
                    f"round {st.index}: accept {st.p_accept:.9f}"
                    f" reject {st.p_reject:.9f} residual {st.residual_mass:.9f}"
                    f" ({st.configurations} configurations, {st.stored} stored)"
                )
        if result.halted_round is not None:
            print(f"halted at round {result.halted_round}; steps counted: {result.steps_counted}")
        else:
            print(f"cutoff reached after {len(result.rounds)} rounds; steps counted: {result.steps_counted}")
    print(f"p_rej={result.p_reject:.9f}")
    print(f"leftover={result.leftover:.9f}")
    print(f"p_acc={result.p_accept:.9f}")


def cmd_run(args) -> int:
    p = _load_checked(args.file)
    _require_well_formed(p)
    result = simulate(p, args.input, args.cutoff)
    _print_run(result, args.machine, args.trace)
    return 0


def cmd_lift(args) -> int:
    p = _load_checked(args.file)
    out = lift_2ip_to_3qip(p)
    save_protocol(args.output, out.protocol)
    wrapped = [
        str(i + 1)
        for i in range(p.k)
        if out.protocol.provers[i].strategy is not p.provers[i].strategy
    ]
    if args.provenance:
        _write_provenance(args.provenance, p, out, log_symbols={_rowkey_str(k): v for k, v in out.log_symbols.items()})
    if args.machine:
        print(f"name={out.protocol.name}")
        print(f"rows={len(out.protocol.verifier.rows)}")
        print(f"record_symbols={len(out.log_symbols)}")
        print(f"wrapped={','.join(wrapped) if wrapped else 'none'}")
        print(f"output={args.output}")
    else:
        print(f"lifted {p.name} -> {out.protocol.name}: "
              f"{len(out.protocol.verifier.rows)} rows, "
              f"{len(out.log_symbols)} record symbols")
        if wrapped:
            print(f"wrapped provers for reversibility: {', '.join(wrapped)}")
        print(f"wrote {args.output}")
    return 0


def cmd_reduce(args) -> int:
    p = _load_checked(args.file)
    unified = False
    try:
        out = reduce_3qip_to_2qip(p)
    except AlphabetMismatch:
        p = unify_alphabets(p)
        unified = True
        out = reduce_3qip_to_2qip(p)
    save_protocol(args.output, out.protocol)
    if args.provenance:
        _write_provenance(args.provenance, p, out, dropped=[_rowkey_str(k) for k in out.dropped_rows])
    alphabet = len(out.protocol.verifier.comm_alphabets[0])
    if args.machine:
        print(f"name={out.protocol.name}")
        print(f"unified={'true' if unified else 'false'}")
        print(f"rows={len(out.protocol.verifier.rows)}")
        print(f"dropped={len(out.dropped_rows)}")
        print(f"channel_alphabet={alphabet}")
        print(f"output={args.output}")
    else:
        if unified:
            print("channel alphabets differed or were not a power of two; unified first")
        print(f"reduced {p.name} -> {out.protocol.name}: "
              f"{len(out.protocol.verifier.rows)} rows over {alphabet} channel symbols, "
              f"{len(out.dropped_rows)} record-channel rows dropped")
        print(f"wrote {args.output}")
    return 0


def cmd_adversary(args) -> int:
    p = _load_checked(args.file)
    _require_well_formed(p)
    started = time.perf_counter()
    result = adv.search(
        p,
        args.input,
        objective=args.objective,
        cutoff=args.cutoff,
        limit=args.limit,
    )
    elapsed = time.perf_counter() - started
    rate = result.evaluated / elapsed if elapsed > 0 else float("inf")
    if args.machine:
        print(f"name={p.name}")
        print(f"input={args.input}")
        print(f"objective={result.objective}")
        print(f"evaluated={result.evaluated}")
        for i, label in enumerate(result.best_labels, start=1):
            print(f"prover{i}={label}")
        print(f"best_p_acc={result.best_p_accept:.9f}")
        print(f"best_p_rej={result.best_p_reject:.9f}")
        print(f"best_leftover={result.best_leftover:.9f}")
        print(f"elapsed_s={elapsed:.6f}")
        print(f"combos_per_s={rate:.1f}")
    else:
        print(f"searched {result.evaluated} strategy combinations ({result.objective})")
        for i, label in enumerate(result.best_labels, start=1):
            print(f"  prover {i}: {label}")
        print(f"best combination: p_acc={result.best_p_accept:.9f}"
              f" p_rej={result.best_p_reject:.9f} leftover={result.best_leftover:.9f}")
        print(f"throughput: elapsed_s={elapsed:.6f} combos_per_s={rate:.1f}")
    print(f"best={result.best_value:.9f}")
    return 0


def cmd_compare(args) -> int:
    pa = _load_checked(args.file_a)
    pb = _load_checked(args.file_b)
    _require_well_formed(pa)
    _require_well_formed(pb)
    ra = simulate(pa, args.input, args.cutoff)
    rb = simulate(pb, args.input, args.cutoff)
    pairs = {"p_acc": (ra.p_accept, rb.p_accept), "p_rej": (ra.p_reject, rb.p_reject),
             "leftover": (ra.leftover, rb.leftover)}
    diff = max(abs(a - b) for a, b in pairs.values())
    match = diff <= args.tol
    if args.machine:
        print(f"a={pa.name}")
        print(f"b={pb.name}")
        print(f"input={args.input}")
        for key, (a, b) in pairs.items():
            print(f"a.{key}={a:.12f}")
            print(f"b.{key}={b:.12f}")
        print(f"diff={diff:.3e}")
        print(f"match={'true' if match else 'false'}")
    else:
        for side, p in enumerate((pa, pb)):
            print(f"{p.name}: " + " ".join(f"{key}={pair[side]:.12f}" for key, pair in pairs.items()))
        print(f"difference {diff:.3e} ({'within' if match else 'exceeds'} tolerance {args.tol:g})")
    return 0 if match else 1


def cmd_corpus(args) -> int:
    names = args.only if args.only else None
    try:
        written = corpus_mod.emit(args.directory, names)
    except KeyError as exc:
        raise ValidationError(exc.args[0])
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmipsim",
        description="Simulate, transform, and stress protocols between finite-automaton "
                    "verifiers and untrusted provers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="structural and well-formedness checks")
    sp.add_argument("file")
    sp.add_argument("--machine", action="store_true", help="key=value output")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("run", help="simulate a protocol on an input string")
    sp.add_argument("file")
    sp.add_argument("input")
    sp.add_argument("--cutoff", type=int, default=None, help="override the round cutoff")
    sp.add_argument("--trace", action="store_true", help="per-round statistics")
    sp.add_argument("--machine", action="store_true", help="key=value output")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("lift", help="fair-coin classical 2-prover -> quantum 3-prover")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--provenance", help="write a row provenance JSON here")
    sp.add_argument("--machine", action="store_true", help="key=value output")
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("reduce", help="quantum 3-prover with eraser -> 2-prover")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--provenance", help="write a row provenance JSON here")
    sp.add_argument("--machine", action="store_true", help="key=value output")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("adversary", help="sweep prover strategy families")
    sp.add_argument("file")
    sp.add_argument("input")
    sp.add_argument("--objective", choices=["max-accept", "min-reject"], default="max-accept")
    sp.add_argument("--cutoff", type=int, default=None)
    sp.add_argument("--limit", type=int, default=None, help="combination cap")
    sp.add_argument("--machine", action="store_true", help="key=value output")
    sp.set_defaults(func=cmd_adversary)

    sp = sub.add_parser("compare", help="acceptance, rejection and leftover of two protocols on one input")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("input")
    sp.add_argument("--cutoff", type=int, default=None)
    sp.add_argument("--tol", type=float, default=BOUND_TOL)
    sp.add_argument("--machine", action="store_true", help="key=value output")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("corpus", help="write the built-in protocols as files")
    sp.add_argument("directory")
    sp.add_argument("--only", action="append", help="emit just this protocol (repeatable)")
    sp.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, ValidationError, RunFault) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SpecFileError) else 3 if isinstance(exc, ValidationError) else 4


if __name__ == "__main__":
    sys.exit(main())
