"""BSC and binary-input AWGN channel models and LLR cost vectors.

Costs follow the standard LP-decoding convention
gamma_i = ln(Pr(y_i | x_i = 0) / Pr(y_i | x_i = 1)) in nats, so minimizing
Gamma . x over codewords is maximum-likelihood decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ChannelError(ValueError):
    pass


@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel with crossover probability p in (0, 0.5)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise ChannelError(f"BSC crossover must be in (0, 0.5), got {self.p}")


@dataclass(frozen=True)
class Awgn:
    """Binary-input AWGN with BPSK map 0 -> +1, 1 -> -1 and noise std sigma > 0."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ChannelError(f"AWGN sigma must be finite and positive, got {self.sigma}")


ChannelModel = Bsc | Awgn


def parse_channel(spec: str) -> ChannelModel:
    """The channel that `bsc:p` or `awgn:sigma` names."""
    kind, _, arg = spec.partition(":")
    try:
        value = float(arg)
    except ValueError:
        raise ChannelError(f"bad channel spec {spec!r}; expected bsc:p or awgn:sigma") from None
    if kind == "bsc":
        return Bsc(p=value)
    if kind == "awgn":
        return Awgn(sigma=value)
    raise ChannelError(f"unknown channel kind {kind!r}")


def channel_id(ch: ChannelModel) -> str:
    """'bsc:p' or 'awgn:sigma', in `:g` form unless that would not parse back to the value."""
    kind, value = ("bsc", ch.p) if isinstance(ch, Bsc) else ("awgn", ch.sigma)
    text = f"{value:g}"
    return f"{kind}:{text if float(text) == value else repr(float(value))}"


@dataclass(frozen=True, eq=False)
class CostVector:
    """Per-bit costs, stored as a read-only float64 copy of any finite 1-D sequence."""

    gammas: np.ndarray

    def __post_init__(self):
        gammas = np.array(self.gammas, dtype=float)
        if gammas.ndim != 1 or not np.isfinite(gammas).all():
            raise ChannelError("costs must be a finite 1-D sequence")
        gammas.flags.writeable = False
        object.__setattr__(self, "gammas", gammas)

    def __len__(self):
        return len(self.gammas)


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Deterministic per-trial generator: PCG64 seeded with SeedSequence((seed, trial)).

    Distinct trial indices give statistically independent streams, so trials
    can be sampled in any order (or concurrently) with identical results.
    """
    if seed < 0 or trial < 0:
        raise ChannelError(f"seed and trial must be non-negative, got seed {seed}, trial {trial}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def transmit(codeword, ch: ChannelModel, seed: int, trial: int = 0) -> np.ndarray:
    """Send a 0/1 codeword through the channel; deterministic given (seed, trial)."""
    x = np.asarray(codeword)
    if not ((x == 0) | (x == 1)).all():
        raise ChannelError("codeword entries must be 0/1")
    x = x.astype(int)
    rng = trial_rng(seed, trial)
    if isinstance(ch, Bsc):
        flips = rng.random(x.size) < ch.p
        return np.bitwise_xor(x, flips.astype(int))
    bpsk = 1.0 - 2.0 * x
    return bpsk + rng.normal(0.0, ch.sigma, x.size)


def llr_costs(received, ch: ChannelModel) -> CostVector:
    """Per-bit LLR weights gamma_i from the received vector."""
    y = np.asarray(received, dtype=float)
    if isinstance(ch, Bsc):
        if not ((y == 0) | (y == 1)).all():
            raise ChannelError("BSC received entries must be 0/1")
        mag = math.log((1.0 - ch.p) / ch.p)
        gammas = np.where(y == 0, mag, -mag)
    else:
        gammas = 2.0 * y / (ch.sigma ** 2)
    return CostVector(gammas=gammas)
