"""Feature-space alignment toolkit for cross-resolution embeddings."""

__version__ = "0.1.0"

from .embeddings import (  # noqa: F401
    EmbeddingSet,
    load_set,
    save_set,
)
from .errors import DataError, FormatError, VpfaError  # noqa: F401
from .synthgen import SynthConfig, generate, planted_direction  # noqa: F401
from .trainer import TrainConfig, TrainLog, train, training_pairs  # noqa: F401
from .vpnet import NetConfig, VPParams, init_params, load_params, save_params  # noqa: F401
