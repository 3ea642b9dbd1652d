"""Seeded generator of cross-resolution embedding sets with a planted shift.

The generative model plants a single global unit direction ``d`` so that,
for every identity, the HR centroid minus the LR-at-rate-``r`` centroid
equals ``alpha(r) * d`` in expectation.  All randomness comes from numpy's
PCG64 generator (``numpy.random.default_rng``) in a fixed draw order, so a
config is a complete recipe for the output: same config, same bytes.

Draw order: one standard-normal vector for the direction, then per identity
one prototype draw, its HR sample noises, and per rate the LR sample and
shift noises.  Noise draws happen even when a sigma is zero, keeping stream
positions independent of the noise settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet, check_lr_rates


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 64
    num_identities: int = 200
    samples_per_res: int = 10
    id_spread: float = 0.08
    sample_noise: float = 0.02
    shift_noise: float = 0.01
    shift_magnitude: dict[int, float] = field(default_factory=lambda: {2: 2.0})
    cameras: int = 2
    rates: tuple[int, ...] = (2,)
    seed: int = 0
    direction_seed: int | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.num_identities < 1:
            raise ValueError("need at least one identity")
        if self.samples_per_res < 2:
            raise ValueError("need at least two samples per resolution")
        if self.cameras < 1:
            raise ValueError("need at least one camera")
        for name, seed in (("seed", self.seed), ("direction_seed", self.direction_seed)):
            if seed is not None and seed < 0:
                raise ValueError(f"{name} must be non-negative, got {seed}")
        scales = {"id_spread": self.id_spread, "sample_noise": self.sample_noise,
                  "shift_noise": self.shift_noise,
                  **{f"shift_magnitude[{r}]": v for r, v in self.shift_magnitude.items()}}
        for name, value in scales.items():
            if not 0 <= value < math.inf:  # also false for nan
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        for rate in check_lr_rates(self.rates):
            if rate not in self.shift_magnitude:
                raise ValueError(f"no shift magnitude given for rate {rate}")


def planted_direction(cfg: SynthConfig) -> np.ndarray:
    """The exact unit direction the generator plants for this config."""
    seed = cfg.seed if cfg.direction_seed is None else cfg.direction_seed
    v = np.random.default_rng(seed).standard_normal(cfg.dim)
    return v / np.linalg.norm(v)


def generate(cfg: SynthConfig) -> EmbeddingSet:
    """Build a set of HR records and shifted LR records per the config.

    Record order: for each identity, all HR samples, then all LR samples
    per rate in ``cfg.rates`` order.  Cameras cycle round-robin within
    each identity/resolution block.
    """
    rng = np.random.default_rng(cfg.seed)
    rng.standard_normal(cfg.dim)  # direction slot; value comes from planted_direction
    direction = planted_direction(cfg)

    # A block of k rows drawn at once takes the same values as k draws of one row.
    n, dim, rates = cfg.samples_per_res, cfg.dim, [0, *cfg.rates]
    matrix = np.empty((cfg.num_identities * len(rates) * n, dim))
    for identity, blocks in enumerate(matrix.reshape(cfg.num_identities, len(rates), n, dim)):
        prototype = cfg.id_spread * rng.standard_normal(dim)
        blocks[0] = prototype + cfg.sample_noise * rng.standard_normal((n, dim))
        for k, rate in enumerate(cfg.rates, start=1):
            shift = cfg.shift_magnitude[rate] * direction
            noise = rng.standard_normal((n, 2, dim))  # per sample: base noise, shift noise
            base = prototype + cfg.sample_noise * noise[:, 0]
            blocks[k] = base - shift + cfg.shift_noise * noise[:, 1]
    # min(): the same camera IDs for any count, also one that int64 cannot hold
    return EmbeddingSet(
        matrix,
        np.repeat(np.arange(cfg.num_identities), len(rates) * n),
        np.tile(np.arange(n) % min(cfg.cameras, n), cfg.num_identities * len(rates)),
        np.tile(np.repeat(rates, n), cfg.num_identities),
    )
