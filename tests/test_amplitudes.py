import math

import pytest

from qmipsim.amplitudes import (
    apply_sparse_operator,
    inner_product,
    norm_sq,
    prune,
)
from qmipsim.errors import MissingTransition

H = 1 / math.sqrt(2)


def test_norm_sq():
    assert norm_sq({}) == 0.0
    assert norm_sq({"a": 1.0}) == pytest.approx(1.0)
    assert norm_sq({"a": complex(H), "b": complex(0, H)}) == pytest.approx(1.0)


def test_prune_drops_tiny_amplitudes():
    state = {"a": 1.0 + 0j, "b": 1e-16 + 0j, "c": 0j}
    assert set(prune(state)) == {"a"}


def test_inner_product_conjugates_first_argument():
    a = {"x": complex(0, 1)}
    b = {"x": 1.0 + 0j}
    assert inner_product(a, b) == complex(0, -1)
    assert inner_product(b, a) == complex(0, 1)
    # disjoint supports are orthogonal
    assert inner_product({"x": 1.0}, {"y": 1.0}) == 0j


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
