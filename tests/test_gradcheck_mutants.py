"""Planted backward bugs, each of which a ``meant gradcheck`` line must flag.

A mutant is a copy of one op whose source has one edit inside its backward,
so its forward is unchanged. For one test it replaces the op on ``Tensor``
and in every ``meant`` module that imported it, and the gradcheck line that
covers the op must read at or above that line's gate.
"""

import inspect
import sys
import textwrap

import numpy as np
import pytest

from conftest import GRADCHECK_LINE
from meant import tensor, training
from meant.cli import MODEL_GATE, OP_GATE, _model_checks, _op_checks
from meant.tensor import Tensor

SCALED = ("def bwd(g):\n", "def bwd(g):\n        g = g * (1 + 1e-4)\n")

# bug: (op, source text, its replacement, the gradcheck line that flags it)
MUTANTS = {
    **{f"{op} gradient scaled by 1 + 1e-4": (op, *SCALED, line)
       for op, line in GRADCHECK_LINE.items()},
    "gelu backward yields NaN": (
        "gelu", "def bwd(g):\n", "def bwd(g):\n        g = g * np.nan\n", "gelu"),
    "layer_norm backward yields inf": (
        "layer_norm", "def bwd(g):\n", "def bwd(g):\n        g = g * np.inf\n",
        "layer_norm"),
    "attention drops rowsum(dP P)": (
        "attention",
        '            ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]\n',
        "", "attention"),
    "attention key gradient scaled by 1 + 1e-5": (
        "attention", "_unbroadcast(gk, k.shape)",
        "_unbroadcast(gk * (1 + 1e-5), k.shape)", "padded_attn"),
    "layer_norm drops the mean term": (
        "layer_norm", "            dx -= gn.mean(axis=-1, keepdims=True)\n", "",
        "layer_norm"),
    "gelu drops x * pdf": (
        "gelu", "g * (cdf + x.data * pdf)", "g * cdf", "gelu"),
    "rotate_pairs flips the sign of sin": (
        "rotate_pairs", "_rotate(g, cos, -sin)", "_rotate(g, cos, sin)", "rotary"),
    "__getitem__ assigns repeated rows": (
        "Tensor.__getitem__", "np.add.at(full, key, g)", "full[key] = g",
        "gather"),
    "cross_entropy drops 1/b": (
        "cross_entropy", "per_row = g * (1.0 / b)", "per_row = g",
        "cross_entropy"),
    "_unbroadcast sums the last axis, not a leading one": (
        "_unbroadcast", "grad.sum(axis=0)", "grad.sum(axis=-1)", "linear"),
    "concat splits each part one row off": (
        "concat", "np.split(g, splits, axis=axis)",
        "np.split(np.roll(g, -1, axis=axis), splits, axis=axis)",
        "mean_pool, padded days"),
}


def plant(monkeypatch, op: str, old: str, new: str) -> None:
    original = (vars(Tensor)[op.removeprefix("Tensor.")] if op.startswith("Tensor.")
                else getattr(tensor, op, None) or getattr(training, op))
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1
    assert "def bwd" not in source or source.index(old) >= source.index("def bwd")
    namespace = dict(original.__globals__)
    exec(source.replace(old, new), namespace)
    mutant = namespace[original.__name__]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "meant"]
    for owner in (Tensor, *modules):
        for attr, value in list(vars(owner).items()):
            if value is original:
                monkeypatch.setattr(owner, attr, mutant)


def reading(line: str) -> tuple[float, float]:
    """The error and the gate of one ``meant gradcheck`` line."""
    for name, err in _op_checks(np.random.default_rng(7)):
        if name == line:
            return err, OP_GATE
    for label, err in _model_checks():
        if label == line:
            return err, MODEL_GATE
    raise KeyError(line)


@pytest.mark.parametrize("bug", MUTANTS)
def test_gradcheck_flags_planted_bug(monkeypatch, bug):
    op, old, new, line = MUTANTS[bug]
    plant(monkeypatch, op, old, new)
    err, gate = reading(line)
    assert err >= gate, f"{line} reads {err:.3e} under {bug!r}"
