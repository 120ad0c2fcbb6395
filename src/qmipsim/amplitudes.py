"""Sparse state vectors over hashable configurations.

A state vector is a plain dict mapping a configuration id to a complex
amplitude. Entries below PRUNE_TOL in magnitude are dropped; the squared
norm never exceeds 1 (up to rounding) because measurement only removes
mass. Residuals after a measurement stay unnormalized on purpose: their
squared norm is the probability that the machine has not halted yet, so
cumulative halting probabilities can be read off directly.
"""
from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

from .errors import MissingTransition
from .tolerances import PRUNE_TOL

StateVector = dict[Hashable, complex]


def norm_sq(state: StateVector) -> float:
    """Squared 2-norm, i.e. the total probability mass the state carries."""
    return sum(((a * a.conjugate()).real for a in state.values()), 0.0)


def prune(state: StateVector) -> StateVector:
    """Drop entries with magnitude below PRUNE_TOL; a NaN is never below it, so it stays."""
    return {c: a for c, a in state.items() if not abs(a) < PRUNE_TOL}


SparseOperator = Callable[[Hashable], Iterable[tuple[Hashable, complex]]]


def apply_sparse_operator(op: SparseOperator | dict[Any, Any], state: StateVector) -> StateVector:
    """Apply a sparse linear operator given column-wise.

    `op` maps a source configuration to its target list [(config, amplitude), ...],
    either as a dict or as a callable. Every populated configuration must have a
    column; otherwise MissingTransition carries the offending configuration.
    Amplitudes interfere additively and near-zero results are pruned.
    """
    lookup = op.__getitem__ if isinstance(op, dict) else op
    out: StateVector = {}
    for config, amp in state.items():
        try:
            column = lookup(config)
        except KeyError:
            raise MissingTransition(config) from None
        if column is None:
            raise MissingTransition(config)
        for target, weight in column:
            value = out.get(target, 0j) + amp * weight
            out[target] = value
    return prune(out)
