"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built define-by-run: every op links its output back to its
inputs with a closure that routes the upstream gradient. ``backward`` on a
scalar walks the graph once in reverse topological order and accumulates
into the ``.grad`` of every leaf (a tensor no op produced). It frees the
graph as it goes: each op node drops its gradient, closure and parents once
it has passed its gradient on, so one forward supports one ``backward``; a
second ``backward`` through the same graph raises ``ContractError``.

Besides elementwise, shape and reduction ops, three hot spots of the
transformer are single nodes with hand-written backwards, so the graph
keeps none of their intermediates:

- ``attention``: softmax(q k^T * scale, masked keys excluded) @ v, which
  keeps only the probabilities;
- ``layer_norm``: centered normalization plus the affine gain/bias;
- ``rotate_pairs``: the rotation behind rotary, axial 2-D rotary and xPos
  (whose scale is folded into the cos/sin tables).

Everything is double precision on purpose -- this stack exists to be
checked against finite differences.

A train step allocates and frees the same multi-MiB temporaries (attention
probabilities, FFN activations, gradients) every time. By default glibc
hands such blocks back to the OS -- it unmaps blocks above its mmap
threshold and trims the top of the heap -- so the next step faults the same
pages back in, zero-filled, and spends a fifth of its time in the kernel
doing so (text_s128 and vision_224 of perfbench, 2 cores). At import
the allocator is therefore told to keep freed memory: blocks up to 32 MiB
(glibc's own ceiling for its dynamic mmap threshold on 64-bit) come from the
heap, and the heap is never trimmed. Both settings are needed, since fixing
the trim threshold also turns off the dynamic mmap threshold. The heap then
stays at its high-water mark until the process exits; no arithmetic changes.
On a libc without ``mallopt`` (not glibc) this is a no-op.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError, NumericError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_grad_enabled = True

_M_TRIM_THRESHOLD = -1    # glibc <malloc.h> parameter numbers
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep freed blocks in the heap for the next step (module docstring)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


_keep_freed_memory()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _freed(g: np.ndarray) -> None:
    raise ContractError("backward through a graph that an earlier backward "
                        "freed; run the forward again")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """N-dimensional float64 array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[["Tensor"], None]) -> "Tensor":
        out = cls(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # the first contribution is adopted, later ones add out of place, so
        # no buffer is ever written through an alias; a leaf keeps a private
        # copy because its .grad outlives backward and callers may write it
        if self.grad is None:
            self.grad = g.copy() if self._backward is None else g
        else:
            self.grad = self.grad + g

    # -- autodiff driver ----------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every leaf's ``.grad`` and free
        the graph on the way (see the module docstring)."""
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar output, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _freed, ()

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._from_op(out_data, (self, other), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._from_op(out_data, (self, other), bwd)

    __rmul__ = __mul__

    # -- shape manipulation -------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.shape))

        return Tensor._from_op(out_data, (self,), bwd)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inv))

        return Tensor._from_op(out_data, (self,), bwd)

    def __getitem__(self, key) -> "Tensor":
        """Slice or integer-array gather; backward scatter-adds, so rows
        gathered more than once sum their gradients."""
        out_data = self.data[key]

        def bwd(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, g)
                self._accumulate(full)

        return Tensor._from_op(out_data, (self,), bwd)

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if not self.requires_grad:
                return
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._from_op(out_data, (self,), bwd)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# -- kernels -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with broadcasting over leading axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape} x {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, b.data.swapaxes(-1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(a.data.swapaxes(-1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return Tensor._from_op(out_data, (a, b), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x)."""
    cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out_data = x.data * cdf

    def bwd(g):
        if x.requires_grad:
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
            x._accumulate(g * (cdf + x.data * pdf))

    return Tensor._from_op(out_data, (x,), bwd)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Center and scale by the standard deviation over the last axis, then
    apply the affine gain/bias.

    One graph node: backward keeps the normalized input and the per-row
    scale.
    """
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm needs a non-empty last axis")
    if gain.shape[-1] != d or bias.shape[-1] != d:
        raise DimensionError(
            f"affine params of length {gain.shape[-1]}/{bias.shape[-1]} "
            f"do not match last extent {d}")

    def row_mean(a, b):
        return np.einsum("...i,...i->...", a, b)[..., None] / d

    normed = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt(row_mean(normed, normed) + LAYER_NORM_EPS)
    normed /= std
    out_data = normed * gain.data
    out_data += bias.data

    def bwd(g):
        if x.requires_grad:
            # d(normed) projected off the directions normalization removes
            gn = g * gain.data
            dx = normed * row_mean(gn, normed)
            np.subtract(gn, dx, out=dx)
            dx -= gn.mean(axis=-1, keepdims=True)
            dx /= std
            x._accumulate(dx)
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))

    return Tensor._from_op(out_data, (x, gain, bias), bwd)


def attention_weights(q: np.ndarray, k: np.ndarray, scale: float,
                      mask: np.ndarray | None = None) -> np.ndarray:
    """softmax(q k^T * scale) over keys; a key where the boolean ``mask``
    (broadcast against the logits) is False gets a weight of exactly 0."""
    p = np.matmul(q * scale, k.swapaxes(-1, -2))
    if mask is not None:
        p += np.where(mask, 0.0, -np.inf)
    # a row maximum is NaN exactly when its row holds a NaN
    row_max = p.max(axis=-1, keepdims=True)
    if np.isnan(row_max).any():
        raise NumericError("attention logits contain NaN")
    p -= row_max
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention softmax(q k^T * scale) @ v as one node.

    q is (..., n_q, d), k (..., n_k, d), v (..., n_k, d_v); leading axes
    broadcast. ``mask`` is boolean, broadcastable to (..., n_q, n_k), True
    where a key is visible. Backward keeps only the probabilities P and
    uses dS = P * (dP - rowsum(dP * P)) (Dao et al. 2022). Their equal
    rowsum(dO * O) is not used: where P is one-hot it does not cancel
    dP exactly, and huge keys (xPos at s=128) magnify the remainder.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise DimensionError(
            f"attention operands do not align: q {q.shape}, k {k.shape}, "
            f"v {v.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if (~mask).all(axis=-1).any():
            raise NumericError("attention row with every key masked")
    p = attention_weights(q.data, k.data, scale, mask)
    out_data = np.matmul(p, v.data)

    def bwd(g):
        if v.requires_grad:
            v._accumulate(_unbroadcast(np.matmul(p.swapaxes(-1, -2), g),
                                       v.shape))
        if q.requires_grad or k.requires_grad:
            ds = np.matmul(g, v.data.swapaxes(-1, -2))
            ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
            ds *= p
            if q.requires_grad:
                gq = np.matmul(ds, k.data)
                gq *= scale
                q._accumulate(_unbroadcast(gq, q.shape))
            if k.requires_grad:
                gk = np.matmul(ds.swapaxes(-1, -2), q.data * scale)
                k._accumulate(_unbroadcast(gk, k.shape))

    return Tensor._from_op(out_data, (q, k, v), bwd)


def _rotate(a: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Each adjacent pair (a1, a2) of the last axis turned to
    (a1 cos - a2 sin, a2 cos + a1 sin), into a fresh C-order array."""
    a1, a2 = a[..., 0::2], a[..., 1::2]
    out = np.empty(a.shape)
    out[..., 0::2] = a1 * cos - a2 * sin
    out[..., 1::2] = a2 * cos + a1 * sin
    return out


def rotate_pairs(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate each adjacent pair (x1, x2) of the last axis to
    (x1 cos - x2 sin, x2 cos + x1 sin), as one node.

    ``cos`` and ``sin`` hold one angle per pair (half of x's last axis) and
    broadcast against it; scaling both scales the rotated pair (xPos). The
    backward is the transposed rotation: the same turn with sin negated.
    """
    if x.shape[-1] % 2:
        raise DimensionError(f"pair rotation needs an even last axis, got {x.shape}")

    def bwd(g):
        if x.requires_grad:
            x._accumulate(_rotate(g, cos, -sin))

    return Tensor._from_op(_rotate(x.data, cos, sin), (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = list(tensors)
    out_data = np.concatenate([t.data for t in parts], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in parts])[:-1]

    def bwd(g):
        grads = np.split(g, splits, axis=axis)
        for t, gt in zip(parts, grads):
            if t.requires_grad:
                t._accumulate(gt)

    return Tensor._from_op(out_data, parts, bwd)


# C * eps in a central difference's roundoff C * eps * max|f(x +- h)| / h; the
# suite's correct gradients need C >= 1.5, its planted bugs show up to C ~ 1e5
ROUNDOFF = 16.0 * np.finfo(np.float64).eps


def central_difference_errors(loss: Callable[[], Tensor], leaves: Sequence[Tensor],
                              coords: Sequence, step: float) -> list[float]:
    """Per leaf, the worst error of the analytic gradient of the scalar
    ``loss()`` against central differences at the leaf's flat ``coords``.

    With a the analytic and n = (f(x+h) - f(x-h)) / 2h the numeric
    derivative, a difference |a - n| up to the roundoff of n,
    ``ROUNDOFF * max(|f(x+h)|, |f(x-h)|) / h``, does not count; the rest is
    relative to |a| + |n|, so 0 means no difference beyond roundoff. The
    floor grows with |f|, offsets included: keep ``loss`` O(1). A gradient
    shaped unlike its leaf or not finite has an error of inf.
    """
    if step <= 0:
        raise ContractError("step must be positive")
    for x in leaves:
        x.zero_grad()
    out = loss()
    if not np.isfinite(out.data).all():
        raise NumericError("function output is not finite")
    out.backward()
    errors = []
    with no_grad():
        for x, idx in zip(leaves, coords):
            grad = np.zeros(x.shape) if x.grad is None else x.grad
            if grad.shape != x.shape or not np.isfinite(grad).all():
                errors.append(math.inf)
                continue
            analytic, flat, worst = grad.reshape(-1), x.data.reshape(-1), 0.0
            for i in idx:
                orig = flat[i]
                flat[i] = orig + step
                hi = loss().item()
                flat[i] = orig - step
                lo = loss().item()
                flat[i] = orig
                if not (math.isfinite(hi) and math.isfinite(lo)):
                    raise NumericError("function output is not finite")
                numeric = (hi - lo) / (2.0 * step)
                excess = (abs(analytic[i] - numeric)
                          - ROUNDOFF * max(abs(hi), abs(lo)) / step)
                if excess > 0:
                    worst = max(worst, excess / (abs(analytic[i]) + abs(numeric)))
            errors.append(worst)
    return errors


def grad_check(f: Callable[..., Tensor], *inputs: Tensor,
               step: float = 1e-5) -> float:
    """Max ``central_difference_errors`` of the scalar ``f(*inputs)`` over
    every element of every input."""
    if not inputs:
        raise ContractError("grad_check needs at least one input")
    xs = [Tensor(x.data.copy(), requires_grad=True) for x in inputs]
    return max(central_difference_errors(lambda: f(*xs), xs,
                                         [range(x.size) for x in xs], step))
