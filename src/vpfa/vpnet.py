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
import os
import struct
from dataclasses import dataclass, field, fields
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
    y = np.array(x, dtype=np.float64)
    _layernorm(y, gamma, beta, eps, np.empty_like(y), np.empty(y.shape[:-1] + (1,)),
               np.empty_like(y))
    return y


def _layernorm(u, gamma, beta, eps, xhat, inv, sq):
    """LayerNorm of ``u`` written over ``u``; ``xhat`` and ``inv`` (the
    inverse std, one per row) are kept for the backward pass, ``sq`` is
    scratch.  The statistics take ``x.mean``/``x.var``'s roundings: row sum
    / h, subtract, square, row sum / h."""
    h = u.shape[-1]
    mean = np.divide(np.add.reduce(u, axis=-1, keepdims=True, out=inv), h, out=inv)
    d = np.subtract(u, mean, out=xhat)
    var = np.divide(np.add.reduce(np.square(d, out=sq), axis=-1, keepdims=True, out=inv), h,
                    out=inv)
    np.divide(1.0, np.sqrt(np.add(var, eps, out=inv), out=inv), out=inv)
    np.multiply(d, inv, out=xhat)
    np.add(np.multiply(gamma, xhat, out=u), beta, out=u)


def _layernorm_backward(dy, xhat, inv_std, gamma, dgamma, dbeta, dx, tmp, col):
    """Input gradient, written into ``dx`` (``dy`` is overwritten, ``tmp``
    and ``col`` are scratch); the gain/offset gradients go into
    ``dgamma``/``dbeta``.  Each operation rounds as in the formula
    ``dx = (inv_std / h) * (h * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))``
    with ``dxhat = dy * gamma`` and row sums."""
    np.add.reduce(np.multiply(dy, xhat, out=tmp), axis=0, out=dgamma)
    np.add.reduce(dy, axis=0, out=dbeta)
    dxhat = np.multiply(dy, gamma, out=dy)
    h = xhat.shape[-1]
    np.subtract(np.multiply(h, dxhat, out=dx),
                np.add.reduce(dxhat, axis=-1, keepdims=True, out=col), out=dx)
    np.add.reduce(np.multiply(dxhat, xhat, out=tmp), axis=-1, keepdims=True, out=col)
    np.subtract(dx, np.multiply(xhat, col, out=tmp), out=dx)
    return np.multiply(np.divide(inv_std, h, out=col), dx, out=dx)


@dataclass
class ForwardTrace:
    """Workspace of one forward and backward pass over a batch of rows.

    :func:`forward` writes every activation into these buffers and
    :func:`backward` every temporary, so one trace made by :meth:`allocate`
    serves any number of steps without allocating; :meth:`head` gives the
    same buffers for a shorter batch.  Each call that is given a trace
    overwrites its buffers, and with them the arrays the previous call
    returned.  ``z`` is the traced input itself, not a copy.
    """

    xhat1: np.ndarray     # (rows, hidden) normalized pre-activations
    inv1: np.ndarray      # (rows, 1) LayerNorm inverse std
    a1: np.ndarray        # (rows, hidden) block outputs after the ReLU
    xhat2: np.ndarray
    inv2: np.ndarray
    a2: np.ndarray
    xhat3: np.ndarray
    inv3: np.ndarray
    a3: np.ndarray
    residual: np.ndarray  # (rows, dim) tanh correction
    zhat: np.ndarray      # (rows, dim) output
    hid: np.ndarray       # (rows, hidden) scratch
    col: np.ndarray       # (rows, 1) scratch
    da: np.ndarray        # (rows, hidden) gradient wrt a block output
    du: np.ndarray        # (rows, hidden) gradient wrt a pre-activation
    mask: np.ndarray      # (rows, hidden) bool, ReLU mask
    dz: np.ndarray        # (rows, dim) head gradient, then input gradient
    z: np.ndarray | None = None  # (rows, dim) traced input, set by forward
    single: bool = False
    grad_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def allocate(cls, rows: int, dim: int, hidden: int) -> "ForwardTrace":
        """Buffers for batches of ``rows`` inputs."""
        widths = {"residual": dim, "zhat": dim, "dz": dim,
                  "inv1": 1, "inv2": 1, "inv3": 1, "col": 1}
        return cls(**{name: np.empty((rows, widths.get(name, hidden)),
                                     dtype=bool if name == "mask" else np.float64)
                      for name in _BUFFERS})

    def head(self, rows: int) -> "ForwardTrace":
        """A trace over the first ``rows`` rows of these buffers."""
        return ForwardTrace(**{name: getattr(self, name)[:rows] for name in _BUFFERS},
                            grad_cache=self.grad_cache)

    def gradient_views(self, flat: np.ndarray, dim: int, hidden: int) -> dict[str, np.ndarray]:
        """``tensor_views(flat, ...)``, cut once per gradient buffer."""
        if self.grad_cache.get("flat") is not flat:
            self.grad_cache.update(flat=flat, views=tensor_views(flat, dim, hidden))
        return self.grad_cache["views"]


_BUFFERS = tuple(f.name for f in fields(ForwardTrace)
                 if f.name not in ("z", "single", "grad_cache"))


def forward(
    params: VPParams, z: np.ndarray, trace: ForwardTrace | None = None
) -> tuple[np.ndarray, ForwardTrace]:
    """Apply the panning network; returns the output and a backward trace.

    ``trace`` is a workspace from :meth:`ForwardTrace.allocate` (or its
    :meth:`~ForwardTrace.head`) with one row per input row, which is
    filled in place and returned; the output is its ``zhat``.  Without
    one, a trace is allocated for ``z``.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    z2 = np.atleast_2d(z)
    if z2.shape[1] != params.dim:
        raise ValueError(f"input dim {z2.shape[1]} != network dim {params.dim}")
    if trace is None:
        trace = ForwardTrace.allocate(z2.shape[0], params.dim, params.hidden)
    elif trace.zhat.shape != z2.shape or trace.a1.shape[1] != params.hidden:
        raise ValueError(f"trace for {trace.zhat.shape} inputs, hidden {trace.a1.shape[1]}, "
                         f"does not fit {z2.shape} inputs, hidden {params.hidden}")
    trace.z, trace.single = z2, single

    a_in = z2
    for i, xhat, inv, a in (("1", trace.xhat1, trace.inv1, trace.a1),
                            ("2", trace.xhat2, trace.inv2, trace.a2),
                            ("3", trace.xhat3, trace.inv3, trace.a3)):
        w, b, gamma, beta = (getattr(params, n + i) for n in ("w", "b", "gamma", "beta"))
        np.add(np.matmul(a_in, w.T, out=a), b, out=a)
        _layernorm(a, gamma, beta, LN_EPS, xhat, inv, trace.hid)
        a_in = np.maximum(a, 0.0, out=a)

    residual = trace.residual
    np.tanh(np.add(np.matmul(a_in, params.w4.T, out=residual), params.b4, out=residual),
            out=residual)
    zhat = np.add(z2, residual, out=trace.zhat)
    return (zhat[0] if single else zhat), trace


def backward(
    params: VPParams, trace: ForwardTrace, grad_output: np.ndarray, out: np.ndarray | None = None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradients of the forward map for the traced inputs.

    The parameter gradients are written into ``out``, a flat float64 vector
    with the parameters' layout (a new one when None), and returned as its
    views keyed like :data:`TENSOR_ORDER`, together with the gradient with
    respect to the input (which includes the residual skip path).  The
    input gradient and every temporary live in ``trace``'s buffers.
    """
    grad_output = np.asarray(grad_output, dtype=np.float64)
    g = np.atleast_2d(grad_output)
    if trace.z.shape[1] != params.dim or trace.a1.shape[1] != params.hidden:
        raise ValueError("trace does not match the network dimensions")
    if g.shape != trace.z.shape:
        raise ValueError(f"grad_output shape {g.shape} != traced input {trace.z.shape}")
    if out is None:
        out = np.empty(parameter_count(params.dim, params.hidden))
    grads = trace.gradient_views(out, params.dim, params.hidden)

    du = trace.dz
    np.multiply(g, np.subtract(1.0, np.square(trace.residual, out=du), out=du), out=du)
    np.matmul(du.T, trace.a3, out=grads["w4"])
    np.add.reduce(du, axis=0, out=grads["b4"])
    da = np.matmul(du, params.w4, out=trace.da)
    for i, a_in, a_out, xhat, inv, da_in in (
        ("3", trace.a2, trace.a3, trace.xhat3, trace.inv3, trace.da),
        ("2", trace.a1, trace.a2, trace.xhat2, trace.inv2, trace.da),
        ("1", trace.z, trace.a1, trace.xhat1, trace.inv1, trace.dz),
    ):
        # the ReLU mask multiplies as a bool array, as ``da * (a_out > 0.0)`` does
        dy = np.multiply(da, np.greater(a_out, 0.0, out=trace.mask), out=da)
        du = _layernorm_backward(
            dy, xhat, inv, getattr(params, "gamma" + i),
            grads["gamma" + i], grads["beta" + i], trace.du, trace.hid, trace.col,
        )
        np.matmul(du.T, a_in, out=grads["w" + i])
        np.add.reduce(du, axis=0, out=grads["b" + i])
        da = np.matmul(du, getattr(params, "w" + i), out=da_in)

    grad_input = np.add(g, da, out=trace.dz)
    if trace.single:
        grad_input = grad_input[0]
    return grads, grad_input


def save_params(params: VPParams, path: str | Path) -> None:
    """Write the header, then the flat parameter vector verbatim (bit-exact reload)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", PARAMS_MAGIC, PARAMS_VERSION, params.dim, params.hidden))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_params(path: str | Path) -> VPParams:
    head = struct.Struct("<4sIII")
    with open(path, "rb") as fh:
        data = fh.read(head.size)
        if len(data) < head.size:
            raise FormatError(f"{path}: file too short for a parameter header")
        magic, version, dim, hidden = head.unpack(data)
        if magic != PARAMS_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, not a parameter file")
        if version != PARAMS_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dim < 1 or hidden < 1:
            raise FormatError(f"{path}: non-positive dimensions dim={dim} hidden={hidden}")
        count = parameter_count(dim, hidden)
        expected = head.size + 8 * count
        if os.fstat(fh.fileno()).st_size != expected:
            raise FormatError(
                f"{path}: size mismatch, expected {expected} bytes for dim={dim} hidden={hidden}"
            )
        # the body straight into the parameter vector (astype copies only on big-endian hosts)
        flat = np.fromfile(fh, "<f8", count=count).astype(np.float64, copy=False)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite parameter values")
    return VPParams(dim, hidden, flat)
