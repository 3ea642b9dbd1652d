"""Gated residual panning network: forward, analytic backward, persistence.

The network adds a learned, tanh-bounded correction to its input:

    zhat = z + tanh(W4 a3 + b4)
    a_i  = ReLU(LayerNorm_i(W_i a_{i-1} + b_i)),  a_0 = z,  i = 1..3

All math is float64 numpy.  Inputs may be a single vector of length ``dim``
or a batch of shape ``(n, dim)``; gradients of batched calls are summed over
the batch.  Initialization draws the four weight matrices, in order, from
``numpy.random.default_rng(seed)`` as N(0, init_std^2); biases start at
zero and LayerNorm affines at gain 1 / offset 0, so an ``init_std`` of 0
makes the network an exact identity.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError

PARAMS_MAGIC = b"VPNP"
PARAMS_VERSION = 1
LN_EPS = 1e-5

TENSOR_ORDER = (
    "w1", "b1", "gamma1", "beta1",
    "w2", "b2", "gamma2", "beta2",
    "w3", "b3", "gamma3", "beta3",
    "w4", "b4",
)


@dataclass
class NetConfig:
    dim: int = 3840
    hidden: int = 2048
    init_std: float = 1e-3
    seed: int = 0


def tensor_shapes(dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    return {
        "w1": (hidden, dim), "b1": (hidden,), "gamma1": (hidden,), "beta1": (hidden,),
        "w2": (hidden, hidden), "b2": (hidden,), "gamma2": (hidden,), "beta2": (hidden,),
        "w3": (hidden, hidden), "b3": (hidden,), "gamma3": (hidden,), "beta3": (hidden,),
        "w4": (dim, hidden), "b4": (dim,),
    }


def parameter_count(dim: int, hidden: int) -> int:
    """Exact number of learnable scalars for the given dimensions."""
    return sum(math.prod(shape) for shape in tensor_shapes(dim, hidden).values())


def tensor_views(flat: np.ndarray, dim: int, hidden: int) -> dict[str, np.ndarray]:
    """The layout shared by parameters, gradients and the parameter file:
    named row-major views cut from ``flat`` back to back in TENSOR_ORDER."""
    shapes = tensor_shapes(dim, hidden)
    sizes = [math.prod(shapes[name]) for name in TENSOR_ORDER]
    if flat.shape != (sum(sizes),):
        raise ValueError(f"flat buffer shape {flat.shape} != ({sum(sizes)},)")
    views, offset = {}, 0
    for name, size in zip(TENSOR_ORDER, sizes):
        views[name] = flat[offset : offset + size].reshape(shapes[name])
        offset += size
    return views


@dataclass
class VPParams:
    """All parameters in one contiguous float64 vector ``flat``; the named
    tensors ``w1``, ``b1``, ... ``b4`` are views into it (see tensor_views)."""

    dim: int
    hidden: int
    flat: np.ndarray

    def __post_init__(self) -> None:
        if self.flat.dtype != np.float64 or not self.flat.flags.c_contiguous:
            raise ValueError("flat parameters must be a contiguous float64 vector")
        self.__dict__.update(tensor_views(self.flat, self.dim, self.hidden))

    def tensors(self) -> dict[str, np.ndarray]:
        """Parameter arrays in serialization order (live views of ``flat``)."""
        return {name: getattr(self, name) for name in TENSOR_ORDER}

    def copy(self) -> "VPParams":
        return VPParams(self.dim, self.hidden, self.flat.copy())


def init_params(dim: int, hidden: int, init_std: float = 1e-3, seed: int = 0) -> VPParams:
    """Gaussian weights N(0, init_std^2), zero biases, unit LayerNorm gains."""
    if dim < 1 or hidden < 1:
        raise ValueError("dim and hidden must be positive")
    if init_std < 0:
        raise ValueError("init_std must be non-negative")
    rng = np.random.default_rng(seed)
    params = VPParams(dim, hidden, np.zeros(parameter_count(dim, hidden)))
    params.gamma1[...] = params.gamma2[...] = params.gamma3[...] = 1.0
    for i in "1234":
        weight = getattr(params, "w" + i)
        rng.standard_normal(out=weight)
        weight *= init_std
    return params


def init_from_config(cfg: NetConfig) -> VPParams:
    return init_params(cfg.dim, cfg.hidden, cfg.init_std, cfg.seed)


def layernorm_forward(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = LN_EPS
) -> np.ndarray:
    """Normalize over the last axis with population variance, then affine."""
    y, _, _ = _layernorm(np.asarray(x, dtype=np.float64), gamma, beta, eps)
    return y


def _layernorm(x, gamma, beta, eps):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)  # population variance
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return gamma * xhat + beta, xhat, inv_std


def _layernorm_backward(dy, xhat, inv_std, gamma, dgamma, dbeta):
    """Input gradient; the gain/offset gradients go into ``dgamma``/``dbeta``."""
    np.add.reduce(dy * xhat, axis=0, out=dgamma)
    np.add.reduce(dy, axis=0, out=dbeta)
    dxhat = dy * gamma
    h = xhat.shape[-1]
    dx = (inv_std / h) * (
        h * dxhat
        - np.sum(dxhat, axis=-1, keepdims=True)
        - xhat * np.sum(dxhat * xhat, axis=-1, keepdims=True)
    )
    return dx


@dataclass
class ForwardTrace:
    """Activations cached by :func:`forward` for the backward pass."""

    z: np.ndarray
    xhat1: np.ndarray
    inv1: np.ndarray
    a1: np.ndarray
    xhat2: np.ndarray
    inv2: np.ndarray
    a2: np.ndarray
    xhat3: np.ndarray
    inv3: np.ndarray
    a3: np.ndarray
    residual: np.ndarray
    single: bool


def forward(params: VPParams, z: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Apply the panning network; returns the output and a backward trace."""
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    z2 = np.atleast_2d(z)
    if z2.shape[1] != params.dim:
        raise ValueError(f"input dim {z2.shape[1]} != network dim {params.dim}")

    u1 = z2 @ params.w1.T + params.b1
    y1, xhat1, inv1 = _layernorm(u1, params.gamma1, params.beta1, LN_EPS)
    a1 = np.maximum(y1, 0.0)

    u2 = a1 @ params.w2.T + params.b2
    y2, xhat2, inv2 = _layernorm(u2, params.gamma2, params.beta2, LN_EPS)
    a2 = np.maximum(y2, 0.0)

    u3 = a2 @ params.w3.T + params.b3
    y3, xhat3, inv3 = _layernorm(u3, params.gamma3, params.beta3, LN_EPS)
    a3 = np.maximum(y3, 0.0)

    residual = np.tanh(a3 @ params.w4.T + params.b4)
    zhat = z2 + residual

    trace = ForwardTrace(
        z=z2, xhat1=xhat1, inv1=inv1, a1=a1, xhat2=xhat2, inv2=inv2, a2=a2,
        xhat3=xhat3, inv3=inv3, a3=a3, residual=residual, single=single,
    )
    return (zhat[0] if single else zhat), trace


def backward(
    params: VPParams, trace: ForwardTrace, grad_output: np.ndarray, out: np.ndarray | None = None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradients of the forward map for the traced inputs.

    The parameter gradients are written into ``out``, a flat float64 vector
    with the parameters' layout (a new one when None), and returned as its
    views keyed like :data:`TENSOR_ORDER`, together with the gradient with
    respect to the input (which includes the residual skip path).
    """
    grad_output = np.asarray(grad_output, dtype=np.float64)
    g = np.atleast_2d(grad_output)
    if trace.z.shape[1] != params.dim or trace.a1.shape[1] != params.hidden:
        raise ValueError("trace does not match the network dimensions")
    if g.shape != trace.z.shape:
        raise ValueError(f"grad_output shape {g.shape} != traced input {trace.z.shape}")
    if out is None:
        out = np.empty(parameter_count(params.dim, params.hidden))
    grads = tensor_views(out, params.dim, params.hidden)

    du = g * (1.0 - trace.residual**2)
    np.matmul(du.T, trace.a3, out=grads["w4"])
    np.add.reduce(du, axis=0, out=grads["b4"])
    da = du @ params.w4
    for i, a_in, a_out, xhat, inv in (
        ("3", trace.a2, trace.a3, trace.xhat3, trace.inv3),
        ("2", trace.a1, trace.a2, trace.xhat2, trace.inv2),
        ("1", trace.z, trace.a1, trace.xhat1, trace.inv1),
    ):
        du = _layernorm_backward(
            da * (a_out > 0.0), xhat, inv, getattr(params, "gamma" + i),
            grads["gamma" + i], grads["beta" + i],
        )
        np.matmul(du.T, a_in, out=grads["w" + i])
        np.add.reduce(du, axis=0, out=grads["b" + i])
        da = du @ getattr(params, "w" + i)

    grad_input = g + da
    if trace.single:
        grad_input = grad_input[0]
    return grads, grad_input


def save_params(params: VPParams, path: str | Path) -> None:
    """Write the header, then the flat parameter vector verbatim (bit-exact reload)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", PARAMS_MAGIC, PARAMS_VERSION, params.dim, params.hidden))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_params(path: str | Path) -> VPParams:
    data = Path(path).read_bytes()
    head = struct.Struct("<4sIII")
    if len(data) < head.size:
        raise FormatError(f"{path}: file too short for a parameter header")
    magic, version, dim, hidden = head.unpack_from(data, 0)
    if magic != PARAMS_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, not a parameter file")
    if version != PARAMS_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dim < 1 or hidden < 1:
        raise FormatError(f"{path}: non-positive dimensions dim={dim} hidden={hidden}")
    expected = head.size + 8 * parameter_count(dim, hidden)
    if len(data) != expected:
        raise FormatError(
            f"{path}: size mismatch, expected {expected} bytes for dim={dim} hidden={hidden}"
        )
    flat = np.frombuffer(data, "<f8", offset=head.size).astype(np.float64)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite parameter values")
    return VPParams(dim, hidden, flat)
