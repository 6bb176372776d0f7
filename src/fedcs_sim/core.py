"""Foundation types shared by every module: units, seeded randomness, errors."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimulationError",
    "ParameterError",
    "ModelError",
    "UnitError",
    "Seconds",
    "Megabits",
    "RngStream",
    "is_integer",
    "is_number",
]


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(SimulationError):
    """An argument or configuration value is invalid.

    `field` names the constructor argument at fault when the raiser knows it,
    so that a caller which built the object from a config file can report
    the config key instead.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ModelError(SimulationError):
    """An internal modelling contract was violated."""


class UnitError(ParameterError):
    """A physical-unit value is negative, non-finite, or non-integral."""


def is_integer(value: object) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """A finite number that fits a float.  true and false are not numbers
    here, and neither are NaN and the infinities, which Python's json reads
    from NaN, Infinity and out-of-range literals such as 1e400."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


class _NonNegativeReal(float):
    """Base for unit-tagged floats; rejects negative and non-finite values.

    Arithmetic degrades to plain float on purpose: combining two units yields
    a dimensionless number until the result is re-wrapped explicitly, which
    keeps unit conversions visible at the call site.
    """

    __slots__ = ()

    def __new__(cls, value) -> "_NonNegativeReal":
        v = float(value)
        if not math.isfinite(v) or v < 0.0:
            raise UnitError(f"{cls.__name__} must be finite and non-negative, got {value!r}")
        return super().__new__(cls, v)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({float(self)!r})"


class Seconds(_NonNegativeReal):
    """Simulated duration or instant, in seconds."""


class Megabits(_NonNegativeReal):
    """Payload size in megabits (1 Mbit = 1e6 bits)."""

    @classmethod
    def from_megabytes(cls, megabytes: float) -> "Megabits":
        return cls(float(megabytes) * 8.0)


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream.

    The same (seed, label) pair always yields the same sample sequence, and
    distinct labels yield statistically independent streams.  One experiment
    seed can therefore drive placement, fluctuation, selection, training and
    partition draws without coupling them: perturbing one stream leaves the
    others untouched.
    """

    seed: int
    label: str = "root"

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        if not self.label:
            raise ParameterError("stream label must be a non-empty string")

    def child(self, label: str) -> "RngStream":
        """Derive a sub-stream; children with distinct labels are independent."""
        return RngStream(self.seed, f"{self.label}/{label}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        key = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        return np.random.default_rng(seq)
