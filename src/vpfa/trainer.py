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

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DataError
from .stats import cosine
from .vpnet import ForwardTrace, NetConfig, VPParams, backward, forward, init_from_config


@dataclass(frozen=True)
class PrototypePair:
    identity: int
    lr_mean: np.ndarray
    hr_mean: np.ndarray


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
        if not (math.isfinite(self.learning_rate) and math.isfinite(self.weight_decay)):
            raise ValueError("learning_rate and weight_decay must be finite")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.num_pairs < 1:
            raise ValueError("learning_rate, batch_size, num_pairs must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0 < self.bootstrap_fraction <= 1:
            raise ValueError("bootstrap_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class TrainLog:
    epoch_loss: list[float] = field(default_factory=list)
    wall_time: float = 0.0


def _lr_mask(eset: EmbeddingSet, rates: list[int] | None) -> np.ndarray:
    """The LR rows at ``rates`` (at every LR rate when None)."""
    lr = eset.rate_array != 0
    return lr if rates is None else lr & np.isin(eset.rate_array, rates)


def build_prototype_pairs(
    eset: EmbeddingSet, rates: list[int] | None = None
) -> tuple[list[PrototypePair], int]:
    """Mean-feature pairs for identities with >= 2 HR and >= 2 LR samples.

    LR samples are pooled across ``rates`` (all LR rates when None).
    Returns the pairs in sorted identity order plus the count of skipped
    identities.
    """
    hr = eset.rows_by_identity(eset.rate_array == 0)
    lr = eset.rows_by_identity(_lr_mask(eset, rates))
    pairs = []
    skipped = 0
    for identity in sorted(set(hr) | set(lr)):
        hs = hr.get(identity, ())
        ls = lr.get(identity, ())
        if len(hs) >= 2 and len(ls) >= 2:
            pairs.append(PrototypePair(
                identity, eset.matrix[ls].mean(axis=0), eset.matrix[hs].mean(axis=0)))
        else:
            skipped += 1
    if not pairs:
        raise DataError("no identity has two samples at both resolutions")
    return pairs, skipped


def sample_training_pairs(
    pairs: list[PrototypePair],
    eset: EmbeddingSet,
    cfg: TrainConfig,
    rates: list[int] | None = None,
) -> list[PrototypePair]:
    """Draw ``cfg.num_pairs`` bootstrap prototype pairs with identity cycling.

    The identity list is reshuffled (seeded) every full pass, so draw counts
    per identity differ by at most one.  Each draw recomputes both means
    over a random subset of ceil(bootstrap_fraction * count) samples
    (minimum 2), making repeated draws of an identity distinct.
    """
    if not pairs:
        raise DataError("no prototype pairs to sample from")
    hr = eset.rows_by_identity(eset.rate_array == 0)
    lr = eset.rows_by_identity(_lr_mask(eset, rates))
    hr_mats = {p.identity: eset.matrix[hr[p.identity]] for p in pairs}
    lr_mats = {p.identity: eset.matrix[lr[p.identity]] for p in pairs}

    rng = np.random.default_rng(cfg.seed)
    ids = np.array([p.identity for p in pairs])
    out: list[PrototypePair] = []
    while len(out) < cfg.num_pairs:
        for identity in rng.permutation(ids):
            if len(out) == cfg.num_pairs:
                break
            hs = hr_mats[identity]
            ls = lr_mats[identity]
            n_h = max(2, math.ceil(cfg.bootstrap_fraction * hs.shape[0]))
            n_l = max(2, math.ceil(cfg.bootstrap_fraction * ls.shape[0]))
            pick_h = rng.choice(hs.shape[0], size=n_h, replace=False)
            pick_l = rng.choice(ls.shape[0], size=n_l, replace=False)
            out.append(
                PrototypePair(
                    int(identity), ls[pick_l].mean(axis=0), hs[pick_h].mean(axis=0)
                )
            )
    return out


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
    work: np.ndarray = field(default_factory=lambda: np.empty((2, ADAM_BLOCK)), repr=False)

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

    Each tensor is walked in blocks of ``ADAM_BLOCK`` elements with in-place
    ufuncs into two scratch rows kept in ``state``, so a step allocates no
    tensor-sized temporaries.  Each operation keeps this association, which
    makes the result bit-identical to the unblocked formula::

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
        for lo in range(0, theta.size, ADAM_BLOCK):
            th, gr, mb, vb = (a[lo : lo + ADAM_BLOCK] for a in flat)
            g, tmp = state.work[:, : th.size]
            np.add(gr, np.multiply(wd, th, out=g), out=g)
            mb *= beta1
            mb += np.multiply(1.0 - beta1, g, out=tmp)
            vb *= beta2
            vb += np.multiply(np.multiply(1.0 - beta2, g, out=tmp), g, out=tmp)
            np.add(np.sqrt(np.divide(vb, bc2, out=tmp), out=tmp), eps, out=tmp)
            th -= np.divide(np.multiply(lr, np.divide(mb, bc1, out=g), out=g), tmp, out=g)
    return tensors, state


def train(
    eset: EmbeddingSet,
    net_cfg: NetConfig,
    cfg: TrainConfig,
    rates: list[int] | None = None,
) -> tuple[VPParams, TrainLog]:
    """Mini-batch training over sampled prototype pairs.

    Deterministic given (net_cfg.seed, cfg.seed): the pair sample comes
    from ``default_rng(cfg.seed)`` and the per-epoch batch order from the
    derived stream ``default_rng([cfg.seed, 1])``.  Batch loss is the mean
    per-pair alignment error.
    """
    if net_cfg.dim != eset.dim:
        raise ValueError(f"network dim {net_cfg.dim} != data dim {eset.dim}")
    start = time.perf_counter()
    pairs, _ = build_prototype_pairs(eset, rates)
    sampled = sample_training_pairs(pairs, eset, cfg, rates)
    z_lr = np.stack([p.lr_mean for p in sampled])
    z_hr = np.stack([p.hr_mean for p in sampled])

    params = init_from_config(net_cfg)
    theta, grads = {"theta": params.flat}, {"theta": np.empty_like(params.flat)}
    state = AdamState.zeros_like(theta)
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
                backward(params, ws, grad_out, out=grads["theta"])
                t += 1
                adam_step(theta, grads, state, lr=cfg.learning_rate, wd=cfg.weight_decay, t=t)
            if not math.isfinite(epoch_total):
                raise DataError(f"training diverged: epoch {epoch} loss is {epoch_total}; "
                                "lower the learning rate")
            log.epoch_loss.append(epoch_total / num)
    if not np.isfinite(params.flat).all():
        raise DataError("training produced non-finite parameters; lower the learning rate")
    log.wall_time = time.perf_counter() - start
    return params, log
