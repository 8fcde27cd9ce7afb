"""The shared cycle-level GPU microarchitecture model."""

from .gpu import Gpu

__all__ = ["Gpu"]
