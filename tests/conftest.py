"""Shared helpers: naive reference implementations the fast paths are
checked against, and small random-instance generators."""

from __future__ import annotations

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import qem_mix
from qem_mix.shotdata import BitString, ShotDataset, _key_values

SRC = str(Path(qem_mix.__file__).resolve().parents[1])

# Property tests draw the same examples on every run and keep no example
# database; a slow example on a busy machine is not a failure.
settings.register_profile("qem-mix", derandomize=True, deadline=None, database=None)
settings.load_profile("qem-mix")


def run_python(code: str, **env) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this qem_mix."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", **env)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def peak() -> int:
    """This process's peak resident set, VmHWM, in KiB. It is the process's
    own: ru_maxrss keeps the peak of the process that forked it."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


# ``peak``'s definition, for the code a fresh interpreter runs
PEAK = inspect.getsource(peak)


def naive_hamming(a: str, b: str) -> int:
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if x != y)


def naive_support_counts(dataset: ShotDataset, radius: int = 1) -> dict:
    """O(U^2 * n) pairwise computation of f_r(x): the shots within Hamming
    distance ``radius`` of x, its own shots included."""
    items = list(dataset.counts.items())
    out = {}
    for a, _ in items:
        out[a] = sum(
            cb for b, cb in items if naive_hamming(a.text, b.text) <= radius
        )
    return out


def reference_save_counts(dataset: ShotDataset, path) -> None:
    """One f-string per record: the counts writer ``save_counts`` must
    match byte for byte."""
    width = f"0{dataset.n}b"
    body = ",".join(
        f'"{format(v, width)}":{c}'
        for v, c in zip(_key_values(dataset.keys), dataset.key_counts.tolist())
    )
    Path(path).write_text("{" + body + "}\n", encoding="utf-8")


def direct_component_prob(y: BitString, x: BitString, eps: np.ndarray) -> float:
    """Eq.-by-eq product form, no log-space tricks. Only safe for small n."""
    p = 1.0
    for j in range(y.n):
        m = y.bit(j + 1) ^ x.bit(j + 1)
        p *= eps[j] if m else (1.0 - eps[j])
    return p


def direct_mixture_prob(y: BitString, xs, alpha, eps) -> float:
    return sum(
        a * direct_component_prob(y, x, eps) for x, a in zip(xs, alpha)
    )


def direct_log_likelihood(dataset: ShotDataset, xs, alpha, eps) -> float:
    return sum(
        math.log(direct_mixture_prob(y, xs, alpha, eps)) for y in dataset.shots
    )


def direct_e_step(dataset: ShotDataset, xs, alpha, eps) -> np.ndarray:
    w = np.zeros((dataset.s, len(xs)))
    for i, y in enumerate(dataset.shots):
        probs = [a * direct_component_prob(y, x, eps) for x, a in zip(xs, alpha)]
        total = sum(probs)
        w[i] = [p / total for p in probs]
    return w


def random_bitstring(rng, n: int) -> BitString:
    return BitString.from_bits(rng.integers(0, 2, size=n, dtype=np.uint8))


def random_dataset(rng, n: int, s: int) -> ShotDataset:
    return ShotDataset.from_bit_matrix(rng.integers(0, 2, size=(s, n), dtype=np.uint8))


def random_model_parts(rng, n: int, k: int):
    """Distinct centers, a random weight vector, and eps in (0.05, 0.45).

    k is capped at 2**n; use len of the returned centers, not k.
    """
    k = min(k, 1 << n)
    seen = set()
    xs = []
    while len(xs) < k:
        x = random_bitstring(rng, n)
        if x.value not in seen:
            seen.add(x.value)
            xs.append(x)
    alpha = rng.dirichlet(np.ones(k))
    eps = rng.uniform(0.05, 0.45, size=n)
    return xs, alpha, eps


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
