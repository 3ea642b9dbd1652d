"""Training of the panning network on identity prototype pairs.

Supervision unit: one (mean LR, mean HR) prototype pair per identity,
restricted to identities with at least two samples on each side.  The
training stream resamples these prototypes as bootstrap subset means so
that repeated draws of one identity yield distinct pairs; batches minimize
the mean squared alignment error under Adam with L2-coupled weight decay.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import vpnet
from .embeddings import EmbeddingSet
from .errors import DataError
from .stats import cosine
from .vpnet import (
    BACKWARD_GROUPS,
    ForwardTrace,
    NetConfig,
    VPParams,
    backward,
    forward,
    tensor_shapes,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 120
    learning_rate: float = 2e-4
    weight_decay: float = 1e-5
    batch_size: int = 32
    num_pairs: int = 5000
    seed: int = 0
    bootstrap_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name, ok, must in (  # each comparison is also false for nan
            ("epochs", self.epochs >= 0, "non-negative"),
            ("learning_rate", 0 < self.learning_rate < math.inf, "finite and positive"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, "finite and non-negative"),
            ("batch_size", self.batch_size >= 1, "positive"),
            ("num_pairs", self.num_pairs >= 1, "positive"),
            ("seed", self.seed >= 0, "non-negative"),
            ("bootstrap_fraction", 0 < self.bootstrap_fraction <= 1, "in (0, 1]"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {must}, got {getattr(self, name)}")


@dataclass
class TrainLog:
    epoch_loss: list[float] = field(default_factory=list)
    wall_time: float = 0.0


def build_prototype_pairs(
    eset: EmbeddingSet, rates: list[int] | None = None
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The identities of ``eset.paired_rows(rates)`` with >= 2 HR and >= 2 LR
    samples, in sorted order (int64), with each one's LR and HR row indices
    into ``eset.matrix``, in record order.

    LR samples are pooled across ``rates``, which must be distinct LR rates
    (all LR rates when None).
    """
    paired = [(i, lr, hr) for i, hr, lr in zip(*eset.paired_rows(rates))
              if hr.size >= 2 and lr.size >= 2]
    if not paired:
        raise DataError("no identity has two samples at both resolutions")
    ids, lr_rows, hr_rows = zip(*paired)
    return np.array(ids, dtype=np.int64), list(lr_rows), list(hr_rows)


def sample_training_pairs(
    identities: np.ndarray,
    lr_rows: list[np.ndarray],
    hr_rows: list[np.ndarray],
    matrix: np.ndarray,
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``cfg.num_pairs`` bootstrap prototype pairs with identity cycling.

    ``identities[k]`` owns the rows ``lr_rows[k]`` and ``hr_rows[k]`` of
    ``matrix``, as :func:`build_prototype_pairs` returns them.  The identity
    list is reshuffled (seeded) every full pass, so draw counts per identity
    differ by at most one.  Each draw recomputes both means over a random
    subset of ceil(bootstrap_fraction * count) samples (minimum 2), making
    repeated draws of an identity distinct.  Returns the drawn identities and
    their (num_pairs, dim) LR and HR means, in draw order.
    """
    if not len(identities):
        raise DataError("no prototype pairs to sample from")
    drawn = np.empty(cfg.num_pairs, dtype=np.int64)
    z_lr, z_hr = np.empty((2, cfg.num_pairs, matrix.shape[1]))
    rng = np.random.default_rng(cfg.seed)
    k = 0
    while k < cfg.num_pairs:
        # permuting positions draws the same numbers as permuting the identities
        for j in rng.permutation(len(identities)):
            if k == cfg.num_pairs:
                break
            hs, ls = hr_rows[j], lr_rows[j]
            n_h = max(2, math.ceil(cfg.bootstrap_fraction * hs.size))
            n_l = max(2, math.ceil(cfg.bootstrap_fraction * ls.size))
            pick_h = rng.choice(hs.size, size=n_h, replace=False)
            pick_l = rng.choice(ls.size, size=n_l, replace=False)
            drawn[k] = identities[j]
            z_lr[k] = matrix[ls[pick_l]].mean(axis=0)
            z_hr[k] = matrix[hs[pick_h]].mean(axis=0)
            k += 1
    return drawn, z_lr, z_hr


def vpl_loss(zhat: np.ndarray, z_hr: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared Euclidean alignment error and its gradient wrt ``zhat``."""
    zhat = np.asarray(zhat, dtype=np.float64)
    z_hr = np.asarray(z_hr, dtype=np.float64)
    if zhat.shape != z_hr.shape:
        raise ValueError("loss operands must have equal shapes")
    diff = zhat - z_hr
    return float(np.sum(diff * diff)), 2.0 * diff


def law_of_cosines_check(zhat: np.ndarray, z_hr: np.ndarray) -> float:
    """|loss - (r^2 + R^2 - 2 r R cos(theta))| for the given pair."""
    loss, _ = vpl_loss(zhat, z_hr)
    r = float(np.linalg.norm(zhat))
    big_r = float(np.linalg.norm(z_hr))
    if r == 0.0 or big_r == 0.0:
        raise DataError("law-of-cosines check needs nonzero vectors")
    expanded = r * r + big_r * big_r - 2.0 * r * big_r * cosine(zhat, z_hr)
    return abs(loss - expanded)


# Elements per Adam block: its six 128 KB operands keep each pass in cache.
ADAM_BLOCK = 16384


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    # adam_step's scratch: it grows to the largest block on first use
    work: np.ndarray = field(default_factory=lambda: np.empty((2, 0)), repr=False)

    @classmethod
    def zeros_like(cls, tensors: dict[str, np.ndarray]) -> "AdamState":
        return cls(*({k: np.zeros_like(t) for k, t in tensors.items()} for _ in "mv"))


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    wd: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    t: int = 1,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update with L2-coupled weight decay, in place.

    The decay is folded into the gradient (g + wd * theta) before the
    moment updates; bias correction uses step index ``t`` (>= 1).

    Each tensor of n elements is walked in max(1, n // ADAM_BLOCK) blocks of
    near-equal size (a tail shorter than ``ADAM_BLOCK`` joins the blocks
    before it) with in-place ufuncs into two scratch rows kept in ``state``,
    which grow to the largest block, so a step allocates no tensor-sized
    temporaries.  Each operation keeps this association, which makes the
    result bit-identical to the unblocked formula::

        g = grad + (wd * theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + ((1 - beta2) * g) * g
        theta -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
    """
    if t < 1:
        raise ValueError("step index t must be >= 1")
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, theta in tensors.items():
        m, v = state.m[name], state.v[name]
        if not (theta.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError(f"adam_step updates C-contiguous tensors only ({name})")
        flat = [a.reshape(-1) for a in (theta, grads[name], m, v)]
        blocks = max(1, theta.size // ADAM_BLOCK)
        bounds = [theta.size * k // blocks for k in range(blocks + 1)]
        width = -(-theta.size // blocks)  # the largest block
        if state.work.shape[1] < width:
            state.work = None  # freed before its replacement exists
            state.work = np.empty((2, width))
        for lo, hi in zip(bounds, bounds[1:]):
            th, gr, mb, vb = (a[lo:hi] for a in flat)
            g, tmp = state.work[:, : th.size]
            np.add(gr, np.multiply(wd, th, out=g), out=g)
            mb *= beta1
            mb += np.multiply(1.0 - beta1, g, out=tmp)
            vb *= beta2
            vb += np.multiply(np.multiply(1.0 - beta2, g, out=tmp), g, out=tmp)
            np.add(np.sqrt(np.divide(vb, bc2, out=tmp), out=tmp), eps, out=tmp)
            th -= np.divide(np.multiply(lr, np.divide(mb, bc1, out=g), out=g), tmp, out=g)
    return tensors, state


def adam_slices(dim: int, hidden: int) -> list[tuple[str, int, int]]:
    """The slices ``flat[lo:hi]`` of the parameter vector that :func:`train`
    steps inside the backward sweep, as (groups, lo, hi) in the order they
    finish; ``groups`` joins their BACKWARD_GROUPS keys, and the slice is
    stepped once its last one is done.

    The groups finish from the end of ``flat`` down, so the finished
    gradients always form a suffix of it.  Consecutive groups share a slice
    while it is one Adam block (under 2 * ADAM_BLOCK elements, see
    :func:`adam_step`) or no longer than the largest group: the desk
    network takes one call of one block per step, the production shape four
    slices of one group each.
    """
    shapes = tensor_shapes(dim, hidden)
    sizes = [sum(math.prod(shapes[n]) for n in names) for names in BACKWARD_GROUPS.values()]
    cap = max(*sizes, 2 * ADAM_BLOCK - 1)
    slices, lo = [], sum(sizes)
    for group, size in zip(BACKWARD_GROUPS, sizes):
        if slices and slices[-1][2] - (lo - size) <= cap:
            slices[-1][0] += group
        else:
            slices.append([group, lo, lo])
        lo -= size
        slices[-1][1] = lo
    return [tuple(s) for s in slices]


def training_pairs(
    eset: EmbeddingSet, cfg: TrainConfig, rates: list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The (cfg.num_pairs, dim) LR and HR means that :func:`train` fits:
    the identities and rows :func:`build_prototype_pairs` pairs (``rates``
    as there), drawn by :func:`sample_training_pairs` from
    ``default_rng(cfg.seed)``.  The arrays are new, so the set may be freed
    before training."""
    _, z_lr, z_hr = sample_training_pairs(*build_prototype_pairs(eset, rates), eset.matrix, cfg)
    return z_lr, z_hr


def train(
    z_lr: np.ndarray, z_hr: np.ndarray, net_cfg: NetConfig, cfg: TrainConfig
) -> tuple[VPParams, TrainLog]:
    """Mini-batch training that maps each row of ``z_lr`` to the same row
    of ``z_hr`` (for example the pairs of :func:`training_pairs`).

    Deterministic given the pairs and net_cfg.seed: the per-epoch batch
    order comes from the stream ``default_rng([cfg.seed, 1])``.  Batch loss
    is the mean per-pair alignment error.  ``cfg.num_pairs`` is not read;
    every given pair is used.
    """
    z_lr, z_hr = (np.asarray(z, dtype=np.float64) for z in (z_lr, z_hr))
    if z_lr.ndim != 2 or z_lr.shape != z_hr.shape or not len(z_lr):
        raise ValueError(f"pairs must be two (pairs, dim) arrays of one shape with at least "
                         f"one pair, got {z_lr.shape} and {z_hr.shape}")
    if net_cfg.dim != z_lr.shape[1]:
        raise ValueError(f"network dim {net_cfg.dim} != data dim {z_lr.shape[1]}")
    start = time.perf_counter()

    # through the module, where tracers (perfbench/tracing.py) wrap init_params
    params = vpnet.init_params(net_cfg.dim, net_cfg.hidden, net_cfg.init_std, net_cfg.seed)
    # Adam steps each slice of the parameter vector inside the backward sweep,
    # once the slice's last group is done, so the gradients of one slice at a
    # time live in ``buf`` (see adam_slices) and no gradient vector exists.
    slices = adam_slices(net_cfg.dim, net_cfg.hidden)
    buf = np.empty(max(hi - lo for _, lo, hi in slices))
    grads = SimpleNamespace(dim=net_cfg.dim, hidden=net_cfg.hidden)
    offset = 0
    for name, shape in tensor_shapes(net_cfg.dim, net_cfg.hidden).items():
        at = offset - max(lo for _, lo, _ in slices if lo <= offset)  # place in its slice
        size = math.prod(shape)
        setattr(grads, name, buf[at : at + size].reshape(shape))
        offset += size
    m, v = np.zeros((2, params.flat.size))
    state = AdamState({key: m[lo:hi] for key, lo, hi in slices},
                      {key: v[lo:hi] for key, lo, hi in slices})
    # adam_step walks name -> array mappings: one entry, the slice, per call
    due = {key[-1]: ({key: params.flat[lo:hi]}, {key: buf[: hi - lo]})
           for key, lo, hi in slices}

    def step_group(group: str) -> None:
        if group in due:
            adam_step(*due[group], state, lr=cfg.learning_rate, wd=cfg.weight_decay, t=t)

    order_rng = np.random.default_rng([cfg.seed, 1])
    num = z_lr.shape[0]
    rows = min(cfg.batch_size, num)
    steps = math.ceil(num / rows)
    # One workspace per run: the network's trace plus, per row, the gathered
    # LR and HR means, the loss gradient and its squares.  The short last
    # batch uses the first rows of the same buffers.
    trace = ForwardTrace.allocate(rows, net_cfg.dim, net_cfg.hidden)
    batch = np.empty((4, rows, net_cfg.dim))
    workspaces = {rows: (trace, batch)}
    last = num - (steps - 1) * rows
    workspaces.setdefault(last, (trace.head(last), batch[:, :last]))
    log = TrainLog()
    t = 0
    # A run that overflows is reported below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            perm = order_rng.permutation(num)
            epoch_total = 0.0
            for s in range(steps):
                idx = perm[s * rows : (s + 1) * rows]
                ws, (lr, hr, grad_out, sq) = workspaces[idx.size]
                # mode="clip" writes straight into ``out`` (the indices are in range)
                np.take(z_lr, idx, axis=0, out=lr, mode="clip")
                np.take(z_hr, idx, axis=0, out=hr, mode="clip")
                zhat, ws = forward(params, lr, ws)
                diff = np.subtract(zhat, hr, out=grad_out)
                epoch_total += float(np.add.reduce(np.square(diff, out=sq), axis=None))
                np.multiply(2.0 / idx.size, diff, out=grad_out)  # mean of per-pair losses
                t += 1
                backward(params, ws, grad_out, out=grads, on_group=step_group)
            if not math.isfinite(epoch_total):
                raise DataError(f"training diverged: epoch {epoch} loss is {epoch_total}; "
                                "lower the learning rate")
            log.epoch_loss.append(epoch_total / num)
    # min and max carry any NaN and show any infinity, without a temporary
    if not (math.isfinite(params.flat.min()) and math.isfinite(params.flat.max())):
        raise DataError("training produced non-finite parameters; lower the learning rate")
    log.wall_time = time.perf_counter() - start
    return params, log
