"""Boolean Tucker decomposition (extension beyond the conference paper)."""

from .decompose import (
    BooleanTuckerConfig,
    BooleanTuckerResult,
    boolean_tucker,
    boolean_tucker_steps,
    tucker_reconstruct,
)
from .distributed import update_tucker_factor

__all__ = [
    "boolean_tucker",
    "boolean_tucker_steps",
    "update_tucker_factor",
    "tucker_reconstruct",
    "BooleanTuckerConfig",
    "BooleanTuckerResult",
]
