"""Gated residual panning network: forward, analytic backward, persistence.

The network adds a learned, tanh-bounded correction to its input:

    zhat = z + tanh(W4 a3 + b4)
    a_i  = ReLU(LayerNorm_i(W_i a_{i-1} + b_i)),  a_0 = z,  i = 1..3

All math is float64 numpy.  Inputs are batches of shape ``(n, dim)``, one
input vector per row; gradients are summed over the batch.  Parameters and
their gradients are both :class:`VPParams`: one flat vector with named
views in the layout of the parameter file.
Initialization draws the four weight matrices, in order, from
``numpy.random.default_rng(seed)`` as N(0, init_std^2); biases start at
zero and LayerNorm affines at gain 1 / offset 0, so an ``init_std`` of 0
makes the network an exact identity.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FormatError

PARAMS_MAGIC = b"VPNP"
PARAMS_VERSION = 1
_HEADER = struct.Struct("<4sIII")
LN_EPS = 1e-5


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


TENSOR_ORDER = tuple(tensor_shapes(1, 1))

# The tensors of each layer group, in the order :func:`backward` finishes
# them; each group is a contiguous run of TENSOR_ORDER, just below the last.
BACKWARD_GROUPS = {"4": ("w4", "b4"),
                   **{i: tuple(n + i for n in ("w", "b", "gamma", "beta")) for i in "321"}}


def parameter_count(dim: int, hidden: int) -> int:
    """Exact number of learnable scalars for the given dimensions."""
    return sum(math.prod(shape) for shape in tensor_shapes(dim, hidden).values())


@dataclass(eq=False)
class VPParams:
    """Parameters, or their gradients, in one contiguous float64 vector
    ``flat``.  The named tensors ``w1``, ``b1``, ... ``b4`` are row-major
    views cut from it back to back in TENSOR_ORDER, the layout of the
    parameter file's body.  Two are equal when ``dim``, ``hidden`` and every
    byte of ``flat`` are equal; they are mutable, so not hashable."""

    dim: int
    hidden: int
    flat: np.ndarray

    def __post_init__(self) -> None:
        if self.flat.dtype != np.float64 or not self.flat.flags.c_contiguous:
            raise ValueError("flat parameters must be a contiguous float64 vector")
        count = parameter_count(self.dim, self.hidden)
        if self.flat.shape != (count,):
            raise ValueError(f"flat buffer shape {self.flat.shape} != ({count},)")
        offset = 0
        for name, shape in tensor_shapes(self.dim, self.hidden).items():
            size = math.prod(shape)
            setattr(self, name, self.flat[offset : offset + size].reshape(shape))
            offset += size

    def __eq__(self, other: object) -> bool:
        # bitwise, as the parameter file compares: -0.0 differs from 0.0, a NaN equals itself
        return (isinstance(other, VPParams)
                and (self.dim, self.hidden) == (other.dim, other.hidden)
                and np.array_equal(self.flat.view(np.uint64), other.flat.view(np.uint64)))

    def tensors(self) -> dict[str, np.ndarray]:
        """The named tensors in TENSOR_ORDER (live views of ``flat``)."""
        return {name: getattr(self, name) for name in TENSOR_ORDER}


def check_init(hidden: int, init_std: float, seed: int) -> None:
    """Refuse the settings :func:`init_params` cannot build a network from at
    any input dimension: a hidden width below 1, an ``init_std`` that is not
    finite and non-negative, a negative seed."""
    if hidden < 1:
        raise ValueError(f"hidden must be positive, got {hidden}")
    if not 0 <= init_std < math.inf:  # also false for nan
        raise ValueError(f"init_std must be finite and non-negative, got {init_std}")
    if seed < 0:
        raise ValueError(f"init seed must be non-negative, got {seed}")


def init_params(dim: int, hidden: int, init_std: float = 1e-3, seed: int = 0) -> VPParams:
    """Gaussian weights N(0, init_std^2), zero biases, unit LayerNorm gains."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    check_init(hidden, init_std, seed)
    rng = np.random.default_rng(seed)
    params = VPParams(dim, hidden, np.zeros(parameter_count(dim, hidden)))
    params.gamma1[...] = params.gamma2[...] = params.gamma3[...] = 1.0
    for i in "1234":
        weight = getattr(params, "w" + i)
        rng.standard_normal(out=weight)
        weight *= init_std
    return params


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
    returned.  ``z`` is the traced input itself, not a copy.  A workspace
    made by :meth:`forward_only` shares buffers between layers and has no
    backward buffers (they are None).
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
    col: np.ndarray | None   # (rows, 1) scratch
    da: np.ndarray | None    # (rows, hidden) gradient wrt a block output
    du: np.ndarray | None    # (rows, hidden) gradient wrt a pre-activation
    mask: np.ndarray | None  # (rows, hidden) bool, ReLU mask
    dz: np.ndarray | None    # (rows, dim) head gradient, then input gradient
    z: np.ndarray | None = None  # (rows, dim) traced input, set by forward

    @classmethod
    def allocate(cls, rows: int, dim: int, hidden: int) -> "ForwardTrace":
        """Buffers for batches of ``rows`` inputs."""
        widths = {"residual": dim, "zhat": dim, "dz": dim,
                  "inv1": 1, "inv2": 1, "inv3": 1, "col": 1}
        return cls(**{name: np.empty((rows, widths.get(name, hidden)),
                                     dtype=bool if name == "mask" else np.float64)
                      for name in _BUFFERS})

    @classmethod
    def forward_only(cls, rows: int, dim: int, hidden: int) -> "ForwardTrace":
        """Inference buffers for batches of ``rows`` inputs: four of hidden
        width and one of input width.  The three layers share one
        normalized-activation buffer and one inverse-std column, their
        outputs alternate between two buffers, and the output is written
        over the tanh correction.  Only the forward values are kept, so
        :func:`backward` refuses this workspace."""
        xhat, a_odd, a_even, hid = np.empty((4, rows, hidden))
        inv, out = np.empty((rows, 1)), np.empty((rows, dim))
        return cls(xhat1=xhat, inv1=inv, a1=a_odd, xhat2=xhat, inv2=inv, a2=a_even,
                   xhat3=xhat, inv3=inv, a3=a_odd, residual=out, zhat=out, hid=hid,
                   col=None, da=None, du=None, mask=None, dz=None)

    def head(self, rows: int) -> "ForwardTrace":
        """A trace over the first ``rows`` rows of these buffers."""
        return ForwardTrace(**{name: getattr(self, name)[:rows] for name in _BUFFERS})


_BUFFERS = tuple(f.name for f in fields(ForwardTrace) if f.name != "z")


def forward(
    params: VPParams, z: np.ndarray, trace: ForwardTrace | None = None
) -> tuple[np.ndarray, ForwardTrace]:
    """Apply the panning network to each row of ``z``; returns the output and a
    backward trace.

    ``trace`` is a workspace from :meth:`ForwardTrace.allocate` (or its
    :meth:`~ForwardTrace.head`) or :meth:`ForwardTrace.forward_only` with
    one row per input row, which is filled in place and returned; the
    output is its ``zhat``.  Without one, a full trace is allocated for
    ``z``.  Every workspace gives the same output bits.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.dim:
        raise ValueError(f"input of shape {z.shape} is not a (rows, dim) batch, dim {params.dim}")
    if trace is None:
        trace = ForwardTrace.allocate(z.shape[0], params.dim, params.hidden)
    elif trace.zhat.shape != z.shape or trace.a1.shape[1] != params.hidden:
        raise ValueError(f"trace for {trace.zhat.shape} inputs, hidden {trace.a1.shape[1]}, "
                         f"does not fit {z.shape} inputs, hidden {params.hidden}")
    trace.z = a_in = z
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
    return np.add(z, residual, out=trace.zhat), trace


def backward(
    params: VPParams,
    trace: ForwardTrace,
    grad_output: np.ndarray,
    out: VPParams | None = None,
    on_group: Callable[[str], object] | None = None,
) -> tuple[VPParams, np.ndarray]:
    """Exact gradients of the forward map for the traced inputs.

    The parameter gradients are written into ``out``, a :class:`VPParams`
    of the network's dimensions (a new one when None) or any object with
    ``dim``, ``hidden`` and the named tensors, which is returned together
    with the gradient with respect to the input (which includes the
    residual skip path).  The input gradient and every temporary live in
    ``trace``'s buffers.

    ``on_group``, when given, is called with each key of BACKWARD_GROUPS
    ("4", "3", "2", "1") as soon as that group's gradients are written and
    its input gradient is computed.  From then on this call reads neither
    the group's parameters nor its gradients, so the callback may update
    both in place (as :func:`~vpfa.trainer.train` does with Adam).
    """
    if trace.dz is None:
        raise ValueError("a forward-only workspace keeps no values for backward")
    g = np.asarray(grad_output, dtype=np.float64)
    if trace.z.shape[1] != params.dim or trace.a1.shape[1] != params.hidden:
        raise ValueError("trace does not match the network dimensions")
    if g.shape != trace.z.shape:
        raise ValueError(f"grad_output shape {g.shape} != traced input {trace.z.shape}")
    if out is None:
        out = VPParams(params.dim, params.hidden, np.empty(params.flat.size))
    elif (out.dim, out.hidden) != (params.dim, params.hidden):
        raise ValueError(f"gradients for dim {out.dim}, hidden {out.hidden} do not fit "
                         f"the network's dim {params.dim}, hidden {params.hidden}")

    du = trace.dz
    np.multiply(g, np.subtract(1.0, np.square(trace.residual, out=du), out=du), out=du)
    np.matmul(du.T, trace.a3, out=out.w4)
    np.add.reduce(du, axis=0, out=out.b4)
    da = np.matmul(du, params.w4, out=trace.da)
    if on_group is not None:
        on_group("4")
    for i, a_in, a_out, xhat, inv, da_in in (
        ("3", trace.a2, trace.a3, trace.xhat3, trace.inv3, trace.da),
        ("2", trace.a1, trace.a2, trace.xhat2, trace.inv2, trace.da),
        ("1", trace.z, trace.a1, trace.xhat1, trace.inv1, trace.dz),
    ):
        # the ReLU mask multiplies as a bool array, as ``da * (a_out > 0.0)`` does
        dy = np.multiply(da, np.greater(a_out, 0.0, out=trace.mask), out=da)
        du = _layernorm_backward(
            dy, xhat, inv, getattr(params, "gamma" + i),
            getattr(out, "gamma" + i), getattr(out, "beta" + i), trace.du, trace.hid, trace.col,
        )
        np.matmul(du.T, a_in, out=getattr(out, "w" + i))
        np.add.reduce(du, axis=0, out=getattr(out, "b" + i))
        da = np.matmul(du, getattr(params, "w" + i), out=da_in)
        if on_group is not None:
            on_group(i)

    return out, np.add(g, da, out=trace.dz)


def save_params(params: VPParams, path: str | Path) -> None:
    """Write the header, then the flat parameter vector verbatim (bit-exact reload)."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(PARAMS_MAGIC, PARAMS_VERSION, params.dim, params.hidden))
        # from the vector's own buffer (astype copies only on big-endian hosts)
        fh.write(params.flat.astype("<f8", copy=False).data)


def load_params(path: str | Path) -> VPParams:
    with open(path, "rb") as fh:
        data = fh.read(_HEADER.size)
        if len(data) < _HEADER.size:
            raise FormatError(f"{path}: file too short for a parameter header")
        magic, version, dim, hidden = _HEADER.unpack(data)
        if magic != PARAMS_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, not a parameter file")
        if version != PARAMS_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dim < 1 or hidden < 1:
            raise FormatError(f"{path}: non-positive dimensions dim={dim} hidden={hidden}")
        count = parameter_count(dim, hidden)
        expected = _HEADER.size + 8 * count
        if os.fstat(fh.fileno()).st_size != expected:
            raise FormatError(
                f"{path}: size mismatch, expected {expected} bytes for dim={dim} hidden={hidden}"
            )
        # the body straight into the parameter vector (astype copies only on big-endian hosts)
        flat = np.fromfile(fh, "<f8", count=count).astype(np.float64, copy=False)
    # min and max carry any NaN and show any infinity, without a parameter-sized mask
    if not (math.isfinite(flat.min()) and math.isfinite(flat.max())):
        raise FormatError(f"{path}: non-finite parameter values")
    return VPParams(dim, hidden, flat)
