"""Built-in example protocols.

Small by design: every machine here is checkable by hand, and the derived
ones exercise the transforms end to end. Sizes are chosen so the merged
channel alphabet after a lift pads to 16 symbols, which keeps the reduced
two-track alphabet at 256 and an exhaustive probe sweep inside a coffee
break.

  always_accept   one prover, accepts on the left endmarker
  coinflip        one prover, fair coin at the left endmarker
  no_comm         two provers the verifier ignores; accept/reject on a coin
  parity_relay    deterministic relay whose honest prover needs the
                  reversibility wrap when lifted
"""
from __future__ import annotations

import math
import os
from functools import lru_cache

from .fileformat import save_protocol
from .specs import (
    BLANK,
    ClassicalTableStrategy,
    ProtocolSpec,
    ProverSpec,
    VerifierSpec,
)
from .transforms import lift_2ip_to_3qip, reduce_3qip_to_2qip, unify_alphabets

SQRT_HALF = 1 / math.sqrt(2)


def _mute_prover(index: int, comm: tuple[str, ...]) -> ProverSpec:
    table = ClassicalTableStrategy(work=0, rows={(BLANK, ()): (BLANK, ())})
    return ProverSpec(index=index, comm_alphabet=comm, tape_alphabet=(BLANK,), space=0, strategy=table)


def _machine(name: str, mode: str, states: tuple[str, ...], symbol: str, rows: dict,
             provers: tuple[ProverSpec, ...], *, a: float, b: float, cutoff: int) -> ProtocolSpec:
    """The protocol whose verifier starts in `states[0]`, halts in acc and rej, reads
    `symbol` and listens on the provers' channel alphabets."""
    verifier = VerifierSpec(
        mode=mode,
        states=states,
        initial=states[0],
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=(symbol,),
        comm_alphabets=tuple(pr.comm_alphabet for pr in provers),
        rows=rows,
    )
    return ProtocolSpec(name=name, verifier=verifier, provers=provers, a=a, b=b, cutoff=cutoff)


def _one_row(name: str, mode: str, branches: tuple, threshold: float) -> ProtocolSpec:
    """A one-prover machine whose one row, at the left endmarker, halts through `branches`."""
    return _machine(f"{name}_{'classical' if mode.endswith('pfa') else 'quantum'}", mode, ("q0", "acc", "rej"), "0",
                    {("q0", "¢", (BLANK,)): branches}, (_mute_prover(1, (BLANK,)),),
                    a=threshold, b=threshold, cutoff=1)


@lru_cache(maxsize=None)
def always_accept(mode: str = "1pfa") -> ProtocolSpec:
    """Accepts immediately at the left endmarker; sanity baseline."""
    return _one_row("always_accept", mode, (("acc", 1, (BLANK,), 1.0 + 0j),), 1.0)


@lru_cache(maxsize=None)
def coinflip(mode: str = "1pfa") -> ProtocolSpec:
    """Fair coin at the left endmarker; accept and reject 1/2 each."""
    w = complex(SQRT_HALF) if mode.endswith("qfa") else complex(0.5)
    return _one_row("coinflip", mode, (("acc", 1, (BLANK,), w), ("rej", 1, (BLANK,), w)), 0.5)


@lru_cache(maxsize=None)
def no_communication() -> ProtocolSpec:
    """Two provers whose messages only matter as a consistency check.

    The verifier flips a coin into branch states c0/c1 and then accepts or
    rejects based on whether prover 1's symbol matches the branch. Honest
    silent provers give acceptance exactly 1/2, and nothing any prover pair
    does moves it, which makes this the reference instance for the lift and
    reduction soundness sweeps.
    """
    half = 0.5 + 0j
    one = 1.0 + 0j
    rows = {
        ("q0", "¢", (BLANK, BLANK)): (
            ("c0", 1, (BLANK, BLANK), half),
            ("c1", 1, (BLANK, BLANK), half),
        ),
    }
    for sigma in ("0", "$"):
        rows[("c0", sigma, (BLANK, BLANK))] = (("acc", 1, (BLANK, BLANK), one),)
        rows[("c0", sigma, ("g", BLANK))] = (("rej", 1, (BLANK, BLANK), one),)
        rows[("c1", sigma, (BLANK, BLANK))] = (("rej", 1, (BLANK, BLANK), one),)
        rows[("c1", sigma, ("g", BLANK))] = (("acc", 1, (BLANK, BLANK), one),)
    return _machine("no_comm", "2pfa", ("q0", "c0", "c1", "acc", "rej"), "0", rows,
                    (_mute_prover(1, (BLANK, "g")), _mute_prover(2, (BLANK,))), a=0.5, b=0.5, cutoff=2)


@lru_cache(maxsize=None)
def parity_relay() -> ProtocolSpec:
    """Deterministic relay over unary inputs.

    The verifier pings prover 1 on every input symbol; the honest prover
    answers with the running parity of pings, and the endmarker check
    accepts exactly when the last answer is consistent. The honest table
    maps two different work tapes to the same output, so it is the built-in
    case where lifting needs the history wrap.
    """
    one = 1.0 + 0j
    rows = {
        ("e", "¢", (BLANK, BLANK)): (("e", 1, (BLANK, BLANK), one),),
        ("e", "$", (BLANK, BLANK)): (("acc", 1, (BLANK, BLANK), one),),
        ("e", "$", ("1", BLANK)): (("rej", 1, (BLANK, BLANK), one),),
        ("o", "$", (BLANK, BLANK)): (("rej", 1, (BLANK, BLANK), one),),
        ("o", "$", ("1", BLANK)): (("acc", 1, (BLANK, BLANK), one),),
    }
    for gamma in (BLANK, "1"):
        rows[("e", "1", (gamma, BLANK))] = (("o", 1, ("1", BLANK), one),)
        rows[("o", "1", (gamma, BLANK))] = (("e", 1, ("1", BLANK), one),)
    relay = ClassicalTableStrategy(
        work=1,
        rows={
            (BLANK, (BLANK,)): (BLANK, (BLANK,)),
            ("1", (BLANK,)): ("1", ("1",)),
            ("1", ("1",)): (BLANK, (BLANK,)),
        },
    )
    prover1 = ProverSpec(index=1, comm_alphabet=(BLANK, "1"), tape_alphabet=(BLANK, "1"), space=1, strategy=relay)
    return _machine("parity_relay", "1pfa", ("e", "o", "acc", "rej"), "1", rows,
                    (prover1, _mute_prover(2, (BLANK,))), a=1.0, b=0.01, cutoff=8)


@lru_cache(maxsize=None)
def no_comm_lift() -> ProtocolSpec:
    return lift_2ip_to_3qip(no_communication()).protocol


@lru_cache(maxsize=None)
def no_comm_reduce() -> ProtocolSpec:
    return reduce_3qip_to_2qip(unify_alphabets(no_comm_lift())).protocol


REGISTRY: dict[str, tuple] = {
    "always_accept_classical": (lambda: always_accept("1pfa"), ("", "0")),
    "always_accept_quantum": (lambda: always_accept("1qfa"), ("", "0")),
    "coinflip_classical": (lambda: coinflip("1pfa"), ("", "0")),
    "coinflip_quantum": (lambda: coinflip("1qfa"), ("", "0")),
    "no_comm": (no_communication, ("0",)),
    "no_comm_lift": (no_comm_lift, ("0",)),
    "no_comm_reduce": (no_comm_reduce, ("0",)),
    "parity_relay": (parity_relay, ("", "1", "11")),
}


def build(name: str) -> ProtocolSpec:
    if name not in REGISTRY:
        raise KeyError(f"unknown corpus protocol {name!r}")
    return REGISTRY[name][0]()


def test_inputs(name: str) -> tuple[str, ...]:
    return REGISTRY[name][1]


def emit(directory: str, names: list[str] | None = None) -> list[str]:
    """Write corpus protocols as .qmip files, all built before the first write; returns the paths."""
    names = sorted(REGISTRY) if names is None else names
    protocols = [build(name) for name in names]
    os.makedirs(directory, exist_ok=True)
    written = [os.path.join(directory, f"{name}.qmip") for name in names]
    for path, p in zip(written, protocols):
        save_protocol(path, p)
    return written
