import math

import pytest

from qmipsim.amplitudes import (
    apply_sparse_operator,
    norm_sq,
    prune,
)
from qmipsim.errors import MissingTransition

H = 1 / math.sqrt(2)


def test_norm_sq():
    assert norm_sq({}) == 0.0 and type(norm_sq({})) is float
    assert norm_sq({"a": 1.0}) == pytest.approx(1.0)
    assert norm_sq({"a": complex(H), "b": complex(0, H)}) == pytest.approx(1.0)


def test_prune_drops_tiny_amplitudes():
    state = {"a": 1.0 + 0j, "b": 1e-16 + 0j, "c": 0j}
    assert set(prune(state)) == {"a"}


def test_apply_sparse_operator_interference():
    # one Hadamard layer on |0> - |1> collapses to |1> exactly
    had = {
        "c0": [("c0", complex(H)), ("c1", complex(H))],
        "c1": [("c0", complex(H)), ("c1", complex(-H))],
    }
    state = {"c0": complex(H), "c1": complex(-H)}
    out = apply_sparse_operator(had, state)
    assert set(out) == {"c1"}
    assert out["c1"] == pytest.approx(1.0)


def test_apply_sparse_operator_callable_and_missing():
    op = {"a": [("b", 1.0 + 0j)]}
    assert apply_sparse_operator(op, {"a": 1.0 + 0j}) == {"b": 1.0 + 0j}
    with pytest.raises(MissingTransition):
        apply_sparse_operator(op, {"zzz": 1.0 + 0j})

    def fn(config):
        return [(config + "!", 1.0 + 0j)]

    assert apply_sparse_operator(fn, {"a": 1.0 + 0j}) == {"a!": 1.0 + 0j}


def test_tolerances_keep_their_values_and_old_import_paths():
    from qmipsim import adversary, amplitudes, engine, specs, tolerances

    assert amplitudes.PRUNE_TOL == tolerances.PRUNE_TOL == 1e-15
    assert tolerances.CONSERVATION_TOL == 1e-12
    assert engine.ROUND_TOL == tolerances.ROUND_TOL == 1e-9
    assert adversary.TIE_TOL == tolerances.TIE_TOL == 1e-12
    assert specs.ORTHO_TOL == specs.CLASSICAL_ROW_TOL == 1e-9
