"""Synthetic shot generation under depolarizing plus per-bit flip noise.

Each shot is independently replaced by a uniform random bit-string with
probability p (the measurement-level effect of depolarization); otherwise a
mixture component is drawn and each of its bits is flipped independently
with probability eps_j. Flips are applied only to non-depolarized shots:
a uniform string XORed with independent flips is still uniform, so the
output distribution is unchanged and the oracle stays simple.

All randomness comes from numpy's PCG64 generator, so a fixed seed gives a
bit-identical dataset on any platform. Shots are drawn in blocks of rows
and packed into keys as they are drawn, so memory beyond the S x W keys
stays bounded and no S x n bit matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, InfeasibleError
from .shotdata import (BitString, ShotDataset, _key_values, _pack_bits, _parse_fields,
                       _read_json_object, _strings_bits, _unique_rows, _write_json_object)

__all__ = [
    "NoiseSpec",
    "GroundTruth",
    "check_noise",
    "sample_ground_truth",
    "sample_flip_probabilities",
    "generate_shots",
    "save_ground_truth",
    "load_ground_truth",
]


def check_noise(eps_low: float, eps_high: float, p: float = 0.0) -> None:
    """Raise ValueError unless 0 <= eps_low <= eps_high < 0.5 and p lies in
    [0, 1]; NaN fails both."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0,1], got {p}")
    if not 0.0 <= eps_low <= eps_high < 0.5:
        raise ValueError(
            f"flip probabilities need 0 <= low <= high < 0.5, got [{eps_low}, {eps_high}]")


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing probability p and per-bit flip probabilities eps.

    depth_label is free-form run metadata with no effect on the model.
    """

    p: float
    eps: np.ndarray
    depth_label: Optional[str] = None

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=np.float64)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "p", float(self.p))
        if eps.ndim != 1 or eps.size < 1:
            raise DimensionError("eps must be a 1-D vector with one entry per bit")
        check_noise(eps.min(), eps.max(), self.p)

    @property
    def n(self) -> int:
        return self.eps.size


@dataclass(frozen=True)
class GroundTruth:
    """The K true solution strings and their mixing weights."""

    solutions: tuple
    weights: np.ndarray

    def __post_init__(self):
        sols = tuple(self.solutions)
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "solutions", sols)
        object.__setattr__(self, "weights", w)
        if not sols:
            raise ValueError("ground truth needs at least one solution")
        n = sols[0].n
        if any(s.n != n for s in sols):
            raise DimensionError("solutions must all have the same width")
        if len(set(s.value for s in sols)) != len(sols):
            raise ValueError("solutions must be pairwise distinct")
        if w.shape != (len(sols),):
            raise DimensionError("one weight per solution required")
        if not (np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= 1e-12):  # NaN fails it
            raise ValueError("weights must be finite, non-negative and sum to 1")

    @property
    def n(self) -> int:
        return self.solutions[0].n

    @property
    def k(self) -> int:
        return len(self.solutions)


def sample_ground_truth(n: int, k: int, rng_seed: int) -> GroundTruth:
    """Draw K distinct uniform-random n-bit strings with equal weights."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 1 or k > (1 << n):
        raise InfeasibleError(f"cannot pick {k} distinct strings of {n} bits")
    rng = np.random.default_rng(rng_seed)
    if n <= 16:
        # Small spaces: permute the whole space, avoids slow rejection when
        # k is close to 2**n.
        values = [int(v) for v in rng.permutation(1 << n)[:k]]
    else:
        chosen: dict = {}
        while len(chosen) < k:
            batch = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
            for v in _key_values(_pack_bits(batch)):
                if v not in chosen:
                    chosen[v] = None
                if len(chosen) == k:
                    break
        values = list(chosen)
    solutions = tuple(BitString(n, v) for v in values)
    weights = np.full(k, 1.0 / k)
    return GroundTruth(solutions, weights)


def sample_flip_probabilities(
    n: int, rng_seed: int, low: float = 0.05, high: float = 0.15
) -> np.ndarray:
    """Per-bit flip probabilities drawn independently uniform on [low, high]."""
    check_noise(low, high)
    rng = np.random.default_rng(rng_seed)
    return rng.uniform(low, high, size=n)


# bits per block of generate_shots' draws, whatever S is: 8 MiB of doubles
_DRAW_BITS = 1 << 20


def generate_shots(
    truth: GroundTruth, noise: NoiseSpec, s: int, rng_seed: int
) -> ShotDataset:
    """Sample S noisy shots from the mixture under the given noise."""
    if s < 1:
        raise ValueError(f"need at least one shot, got {s}")
    n = truth.n
    if noise.n != n:
        raise DimensionError(f"noise has {noise.n} eps entries, truth has n={n}")
    rng = np.random.default_rng(rng_seed)

    depolarized = rng.random(s) < noise.p
    # A component draw for every shot (unused for depolarized ones) keeps
    # the stream layout independent of the depolarization draw.
    component_draw = rng.random(s)

    # Bits are drawn in blocks of rows, every depolarized block before every
    # flip block, as one draw of each. A uint8 integers draw takes whole
    # 32-bit words, so a block continues the stream unchanged only if it
    # holds 4k values: the rows per block are a multiple of 4.
    rows = max(4, _DRAW_BITS // n // 4 * 4)
    keys = np.empty((s, -(-n // 64)), dtype=np.uint64)
    dep, clean = np.flatnonzero(depolarized), np.flatnonzero(~depolarized)
    for lo in range(0, len(dep), rows):
        at = dep[lo:lo + rows]
        keys[at] = _pack_bits(rng.integers(0, 2, size=(len(at), n), dtype=np.uint8))
    # a clean shot's key is its component's key XOR the key of its flips
    cum = np.cumsum(truth.weights)
    cum[-1] = 1.0
    solution_keys = _pack_bits(_strings_bits(truth.solutions))
    for lo in range(0, len(clean), rows):
        at = clean[lo:lo + rows]
        comp = np.searchsorted(cum, component_draw[at], side="right")
        flips = (rng.random((len(at), n)) < noise.eps).view(np.uint8)
        keys[at] = solution_keys[comp] ^ _pack_bits(flips)
    return ShotDataset._make(n, *_unique_rows(keys))


def save_ground_truth(truth: GroundTruth, noise: NoiseSpec, path, seed=None) -> None:
    """Write the ground-truth sidecar (solutions, weights, noise) as JSON."""
    doc = {
        "n": truth.n,
        "k": truth.k,
        "solutions": [s.text for s in truth.solutions],
        "weights": [float(w) for w in truth.weights],
        "p": float(noise.p),
        "eps": [float(e) for e in noise.eps],
        "depth_label": noise.depth_label,
        "seed": seed,
    }
    _write_json_object(path, doc)


def load_ground_truth(path):
    """Read a ground-truth sidecar; returns (GroundTruth, NoiseSpec)."""
    doc = _read_json_object(path)
    with _parse_fields(path):
        truth = GroundTruth(
            tuple(BitString.from_text(t) for t in doc["solutions"]), doc["weights"])
        noise = NoiseSpec(doc["p"], doc["eps"], doc.get("depth_label"))
    return truth, noise
