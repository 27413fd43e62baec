"""Evaluation metrics: matched-pair bit error rate and Hellinger fidelity
between discrete distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DimensionError, NormalizationError
from .shotdata import BitString, hamming_distance
from .emcore import MixtureModel

__all__ = [
    "EvalResult",
    "ber",
    "hellinger_fidelity",
    "model_to_distribution",
]


@dataclass(frozen=True)
class EvalResult:
    """BER with its matching, plus the K-estimation verdict.

    matching holds (true index, estimated index, Hamming distance) triples
    for the greedily matched pairs.
    """

    ber: float
    k_true: int
    k_hat: int
    k_correct: bool
    matching: tuple


def ber(truth: Sequence[BitString], estimate: Sequence[BitString], n: int) -> EvalResult:
    """Greedy closest-pair matching between the two sets, then the average
    fraction of differing bits over matched pairs.

    Repeatedly the globally closest unmatched (true, estimated) pair is
    taken until either set runs out; ties break lexicographically on the
    (true, estimated) string texts. BER divides by n*len(truth), and a size
    mismatch surfaces through k_correct, not through BER.
    """
    truth = list(truth)
    estimate = list(estimate)
    if not truth:
        raise ValueError("truth set must be non-empty")
    for s in (*truth, *estimate):
        if s.n != n:
            raise DimensionError(f"string {s.text} has {s.n} bits, expected {n}")

    pairs = sorted(
        (hamming_distance(t, e), t.text, e.text, i, j)
        for i, t in enumerate(truth)
        for j, e in enumerate(estimate)
    )
    limit = min(len(truth), len(estimate))
    used_t: set = set()
    used_e: set = set()
    matching = []
    total = 0
    for d, _, _, i, j in pairs:
        if i in used_t or j in used_e:
            continue
        used_t.add(i)
        used_e.add(j)
        matching.append((i, j, d))
        total += d
        if len(matching) == limit:
            break
    return EvalResult(
        ber=total / (n * len(truth)),
        k_true=len(truth),
        k_hat=len(estimate),
        k_correct=len(truth) == len(estimate),
        matching=tuple(matching),
    )


def _check_distribution(dist: Mapping[str, float], name: str) -> None:
    # the tests are phrased so that NaN fails them
    total = 0.0
    for key, p in dist.items():
        if not p >= 0:
            raise NormalizationError(f"{name}[{key!r}] is negative or NaN: {p}")
        total += p
    if not abs(total - 1.0) <= 1e-9:
        raise NormalizationError(f"{name} sums to {total!r}, expected 1")


def hellinger_fidelity(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """(sum_i sqrt(p_i * q_i))**2 over the union of supports; 1 for
    identical distributions, 0 for disjoint ones. The sum runs in sorted
    key order, so the result does not depend on string hashing."""
    _check_distribution(p, "p")
    _check_distribution(q, "q")
    overlap = sum(
        math.sqrt(p[key] * q[key]) for key in sorted(p.keys() & q.keys())
    )
    return overlap * overlap


def model_to_distribution(model: MixtureModel) -> dict:
    """Point-mass mixture: probability alpha_k on each center's text."""
    dist: dict = {}
    for x, a in zip(model.x, model.alpha):
        if a > 0:
            dist[x.text] = dist.get(x.text, 0.0) + float(a)
    return dist
