"""Hypothesis profiles, shared generators and the column-count fixture for the test suite.

`ci` replays the same examples on every run and has no deadline, so a
failing property reproduces locally and a loaded runner cannot make one
flaky:

    python -m pytest -q --hypothesis-profile=ci
"""
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qmipsim import engine
from qmipsim.specs import LEFT_END, RIGHT_END, ProtocolSpec, VerifierSpec

settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def column_builds(monkeypatch):
    """Every verifier column a run builds, as (state, head, reception), and every row lookup."""
    built, lookups = [], []
    column = engine._column
    lookup = VerifierSpec.lookup

    def building(verifier, tape, config, quantum):
        built.append(config[:3])
        return column(verifier, tape, config, quantum)

    def looking(self, q, sigma, comm):
        lookups.append((q, sigma, comm))
        return lookup(self, q, sigma, comm)

    monkeypatch.setattr(engine, "_column", building)
    monkeypatch.setattr(VerifierSpec, "lookup", looking)
    return built, lookups


def _fair_coin_row(draw, targets):
    """One or two distinct targets of `targets`, each reached by a +1 move at weight 1 or 1/2."""
    chosen = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True))
    return tuple((q2, 1, (), 1.0 / len(chosen)) for q2 in chosen)


@st.composite
def one_way_protocols(draw):
    """Valid one-way protocols: zero-prover `1pfa` verifiers with 2-4 live states and a row for
    every live state and symbol, each a fair coin that moves +1; `$` rows halt."""
    live = tuple(f"q{i}" for i in range(draw(st.integers(2, 4))))
    symbols = draw(st.sampled_from((("0",), ("0", "1"))))
    everywhere = live + ("acc", "rej")
    rows = {}
    for q in live:
        for sigma in (LEFT_END,) + symbols:
            rows[(q, sigma, ())] = _fair_coin_row(draw, everywhere)
        rows[(q, RIGHT_END, ())] = _fair_coin_row(draw, ("acc", "rej"))
    verifier = VerifierSpec(
        mode="1pfa",
        states=everywhere,
        initial="q0",
        accept=frozenset({"acc"}),
        reject=frozenset({"rej"}),
        input_alphabet=symbols,
        comm_alphabets=(),
        rows=rows,
    )
    return ProtocolSpec(name="one_way", verifier=verifier, provers=(), a=1.0, b=1.0, cutoff=1)
