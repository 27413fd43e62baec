"""EM estimation of a Bernoulli bit-flip mixture with MML model selection.

The observation model: shot y was produced by one of K unknown centers
x_k (mixing weight alpha_k), with bit j flipped independently with
probability eps_j < 0.5. The per-component log-likelihood is

    log P(y | x_k, eps) = sum_j [ m_j*log(eps_j) + (1-m_j)*log(1-eps_j) ],
    m_j = y_j XOR x_kj,

and the fitted objective is either the plain mixture log-likelihood or the
MML-penalized variant, which drives automatic component annihilation: the
weight update subtracts n/2 from each component's responsibility mass and
zero-clips, so unsupported components die and the effective K shrinks.

All likelihood arithmetic is done in natural-log space with max-shifted
normalization; per-component probabilities are never formed directly (at
n=128 they underflow any fixed-precision float).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateModelError, DimensionError, InvalidModelError
from .shotdata import (BitString, ShotDataset, _bits_strings, _check_integer, _parse_fields,
                       _read_json_object, _strings_bits, _write_json_object)

__all__ = [
    "MixtureModel",
    "EmConfig",
    "EmReport",
    "FixedKResult",
    "log_likelihood",
    "e_step",
    "m_step_alpha",
    "m_step_x",
    "m_step_eps",
    "kmeanspp_init",
    "run_em_fixed_k",
    "run_em",
    "save_model",
    "load_model",
]

# Flip probabilities are kept in [_EPS_CLAMP, 0.5 - _EPS_CLAMP] so the
# log-space kernels stay finite.
_EPS_CLAMP = 1e-6


@dataclass(frozen=True)
class MixtureModel:
    """Parameter set: component centers x, weights alpha, flip probs eps."""

    x: tuple
    alpha: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        x = tuple(self.x)
        alpha = np.asarray(self.alpha, dtype=np.float64)
        eps = np.asarray(self.eps, dtype=np.float64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "eps", eps)
        if not x:
            raise InvalidModelError("a model needs at least one component")
        n = x[0].n
        if any(c.n != n for c in x):
            raise DimensionError("component centers must share one width")
        if alpha.shape != (len(x),):
            raise DimensionError("one weight per component required")
        # the tests are phrased so that NaN fails them
        if not (np.all(alpha >= 0) and abs(float(alpha.sum()) - 1.0) <= 1e-9):
            raise InvalidModelError("weights must be finite, >= 0 and sum to 1")
        if eps.shape != (n,):
            raise DimensionError(f"eps must have {n} entries")
        if not np.all((eps > 0.0) & (eps < 0.5)):
            raise InvalidModelError("flip probabilities must lie strictly in (0, 0.5)")

    @property
    def n(self) -> int:
        return self.x[0].n

    @property
    def k(self) -> int:
        return len(self.x)

    @property
    def k_nz(self) -> int:
        return int(np.count_nonzero(self.alpha))


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the EM run; defaults follow the package's standard setup."""

    k_min: int = 1
    k_max: int = 16
    delta: float = 1e-5
    max_iters: int = 500
    seed: int = 0
    eps_init: float = 0.25
    mml_enabled: bool = True

    def __post_init__(self):
        for name in ("k_min", "k_max", "max_iters", "seed"):
            _check_integer(name, getattr(self, name))
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError(f"need 1 <= k_min <= k_max, got {self.k_min}..{self.k_max}")
        # the bounds are phrased so that NaN fails them
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.eps_init < 0.5:
            raise ValueError(f"eps_init must lie in (0, 0.5), got {self.eps_init}")


@dataclass(frozen=True)
class FixedKResult:
    """One inner EM run at a (possibly shrinking) component count."""

    model: MixtureModel
    trace: list
    converged: bool
    iterations: int


@dataclass(frozen=True)
class EmReport:
    """Outcome of the full annihilation sweep from k_max down to k_min.

    objective_trace rows are (k_nz, global_update_count, objective);
    converged maps each level's final k_nz to its convergence flag.
    """

    best: MixtureModel
    k_hat: int
    best_objective: float
    objective_trace: list
    converged: dict
    iterations_total: int


# ---------------------------------------------------------------------------
# probability kernels
#
# Every step runs on the U distinct observed strings with their counts c as
# row weights: the objective is c . lse and the M-step sums use W * c. The
# public S-row functions expand U -> S rows with the dataset's shot index,
# or fold S -> U rows with np.add.at, and call the same kernels.


def _rows(dataset: ShotDataset):
    """Distinct rows as floats (U x n) and their counts as float weights."""
    return (dataset.distinct_bits().astype(np.float64),
            dataset.key_counts.astype(np.float64))


def _loglik_matrix(yf: np.ndarray, xb: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """U x K matrix of log P(y_i | x_k, eps).

    Expanding the XOR as y + x - 2xy turns the bit-mismatch sum into one
    U*n*K matmul plus rank-1 terms.
    """
    log_keep = np.log1p(-eps)
    logit = np.log(eps) - log_keep
    base = float(log_keep.sum())
    xf = xb.astype(np.float64)
    yl = yf @ logit
    xl = xf @ logit
    cross = yf @ (xf * logit).T
    return (yl + base)[:, None] + xl[None, :] - 2.0 * cross


def _softmax_rows(a: np.ndarray):
    """Row-normalize exp(a) stably; returns (weights, row log-sum-exp)."""
    # a running maximum over the K columns: the bits of a.max(axis=1),
    # which numpy reduces slowly over rows this short
    m = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        np.maximum(m, a[:, k], out=m)
    shifted = a - m[:, None]
    np.exp(shifted, out=shifted)
    rowsum = shifted.sum(axis=1)
    w = shifted / rowsum[:, None]
    return w, m + np.log(rowsum)


def _log_joint(yf, xb, alpha, eps) -> np.ndarray:
    """log(alpha_k) + log P(y_i | x_k, eps); -inf for zero-weight columns."""
    a = _loglik_matrix(yf, xb, eps)
    with np.errstate(divide="ignore"):
        a += np.where(alpha > 0, np.log(alpha), -np.inf)[None, :]
    return a


def _posterior(dataset: ShotDataset, model: MixtureModel):
    """E-step kernel on the distinct rows: (W, row lse, counts)."""
    if model.n != dataset.n:
        raise DimensionError(f"model width {model.n} != dataset width {dataset.n}")
    yf, c = _rows(dataset)
    w, lse = _softmax_rows(_log_joint(yf, _strings_bits(model.x), model.alpha, model.eps))
    return w, lse, c


def log_likelihood(dataset: ShotDataset, model: MixtureModel) -> float:
    """Mixture log-likelihood of the dataset under the model."""
    _, lse, c = _posterior(dataset, model)
    return float(c @ lse)


def _mml_penalty(s: int, n: int, alpha: np.ndarray) -> float:
    """The MML coding penalty of ``alpha``, whose weights are all positive."""
    k_nz = alpha.size
    return (
        -0.5 * k_nz * math.log(s / 12.0)
        - 0.5 * (k_nz * n + k_nz)
        - 0.5 * n * float(np.log(s * alpha / 12.0).sum())
    )


def e_step(dataset: ShotDataset, model: MixtureModel) -> np.ndarray:
    """Posterior responsibilities W (S x K), one row per shot in key
    order; columns of zero-weight components are exactly zero, rows sum
    to 1."""
    w, _, _ = _posterior(dataset, model)
    return w[dataset.shot_index()]


# ---------------------------------------------------------------------------
# M-step updates


def m_step_alpha(w: np.ndarray, n: int) -> np.ndarray:
    """MML weight update: subtract n/2 from each column mass, clip at zero,
    renormalize. Columns at or below n/2 are annihilated."""
    col = w.sum(axis=0)
    num = np.maximum(0.0, col - 0.5 * n)
    total = num.sum()
    if total <= 0.0:
        raise DegenerateModelError(
            f"all {w.shape[1]} components fell below the n/2 mass floor"
        )
    return num / total


def _m_step(yf, wc, s, xb=None):
    """Centers and flip probabilities from count-weighted responsibilities
    ``wc`` over the distinct rows ``yf``. Centers are the per-bit weighted
    majority vote (exact ties resolve to bit 1) unless ``xb`` is given; eps
    is the weighted mismatch fraction, clamped away from 0 and 0.5."""
    g, col = wc.T @ yf, wc.sum(axis=0)
    if xb is None:
        xb = (2.0 * g - col[:, None] >= 0.0).astype(np.uint8)
    mism = (g * (1.0 - 2.0 * xb) + col[:, None] * xb).sum(axis=0)
    return xb, np.clip(mism / s, _EPS_CLAMP, 0.5 - _EPS_CLAMP)


def _fold(dataset: ShotDataset, w: np.ndarray) -> np.ndarray:
    """S-row responsibilities summed onto the distinct rows."""
    wc = np.zeros((dataset.distinct, w.shape[1]))
    np.add.at(wc, dataset.shot_index(), w)
    return wc


def m_step_x(dataset: ShotDataset, w: np.ndarray) -> list:
    """Per-component weighted majority vote; exact ties resolve to bit 1."""
    bits, _ = _m_step(_rows(dataset)[0], _fold(dataset, w), dataset.s)
    return _bits_strings(bits)


def m_step_eps(dataset: ShotDataset, w: np.ndarray, x_new) -> np.ndarray:
    """Responsibility-weighted mismatch fraction per bit, clamped away from
    0 and 0.5 to keep the log-space kernels finite."""
    yf, wc = _rows(dataset)[0], _fold(dataset, w)
    return _m_step(yf, wc, dataset.s, _strings_bits(x_new))[1]


# ---------------------------------------------------------------------------
# initialization


def kmeanspp_init(dataset: ShotDataset, k_max: int, seed: int) -> list:
    """k-means++ style seeding over the observed distinct strings.

    The first center is drawn count-weighted; each next one with probability
    proportional to count(x) * d_min(x)**2 (Hamming distance to the nearest
    chosen center). If the distinct strings run out before k_max, the rest
    are uniform random bit-strings.

    The draws come from the standard library's ``random.Random(seed)``,
    whose ``random()`` sequence for a given seed Python keeps across
    versions. Each weighted draw maps one ``random()`` through the
    normalized cumulative weights, as numpy's ``Generator.choice`` does, so
    a zero-weight string is never drawn; each uniform center is one
    ``getrandbits(n)``. ``seed`` is a non-negative integer, a numpy integer
    included.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = dataset.n
    rng = random.Random(seed)
    bits = dataset.distinct_bits()
    weights = dataset.key_counts.astype(np.float64)

    def draw(p: np.ndarray) -> int:
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return int(np.searchsorted(cdf, rng.random(), side="right"))

    first = draw(weights)
    centers = [bits[first]]
    d_min = (bits ^ bits[first]).sum(axis=1, dtype=np.int64)

    while len(centers) < k_max:
        prob = weights * d_min.astype(np.float64) ** 2
        total = prob.sum()
        if total <= 0.0:
            # Every distinct string is already a center.
            break
        idx = draw(prob)
        centers.append(bits[idx])
        d_new = (bits ^ bits[idx]).sum(axis=1, dtype=np.int64)
        np.minimum(d_min, d_new, out=d_min)

    tail = [BitString(n, rng.getrandbits(n)) for _ in range(k_max - len(centers))]
    return _bits_strings(np.stack(centers)) + tail


# ---------------------------------------------------------------------------
# EM loops


def run_em_fixed_k(
    dataset: ShotDataset, init: MixtureModel, config: EmConfig
) -> FixedKResult:
    """Iterate E-step and M-steps from ``init`` until the objective is stable.

    Stops when |L(t) - L(t-1)| < delta * |L(t-1)| or after max_iters
    updates. In MML mode the weight update can annihilate components
    mid-run; responsibilities are then renormalized over the survivors. In
    plain mode (mml_enabled=False) the weight update is the ordinary
    column-mass average and the traced objective is the plain
    log-likelihood.
    """
    if init.n != dataset.n:
        raise DimensionError(f"init width {init.n} != dataset width {dataset.n}")
    s, n = dataset.s, dataset.n
    yf, c = _rows(dataset)

    live0 = init.alpha > 0
    xb = _strings_bits(init.x)[live0]
    alpha = init.alpha[live0].copy()
    alpha /= alpha.sum()
    eps = init.eps.copy()

    trace = []
    prev = None
    converged = False
    updates = 0
    while True:
        a = _log_joint(yf, xb, alpha, eps)
        w, lse = _softmax_rows(a)
        obj = float(c @ lse)
        if config.mml_enabled:
            obj += _mml_penalty(s, n, alpha)
        trace.append((alpha.size, updates, obj))
        if prev is not None and abs(obj - prev) < config.delta * abs(prev):
            converged = True
            break
        if updates >= config.max_iters:
            break
        prev = obj

        wc = w * c[:, None]
        if config.mml_enabled:
            alpha = m_step_alpha(wc, n)
            live = alpha > 0
            if not live.all():
                alpha = alpha[live]
                wc = _softmax_rows(a[:, live])[0] * c[:, None]
        else:
            alpha = wc.sum(axis=0) / s

        xb, eps = _m_step(yf, wc, s)
        updates += 1

    model = MixtureModel(tuple(_bits_strings(xb)), alpha, eps)
    return FixedKResult(model=model, trace=trace, converged=converged, iterations=updates)


def _force_annihilate(model: MixtureModel) -> MixtureModel:
    """Zero out the smallest surviving weight and renormalize."""
    idx = int(np.argmin(model.alpha))
    keep = [i for i in range(model.k) if i != idx]
    alpha = model.alpha[keep]
    return MixtureModel(
        tuple(model.x[i] for i in keep), alpha / alpha.sum(), model.eps
    )


def run_em(dataset: ShotDataset, config: Optional[EmConfig] = None) -> EmReport:
    """Full sweep: start at k_max components, converge, record, force out the
    weakest component, repeat down to k_min; return the model with the best
    objective among recorded levels.

    Ties prefer the later (smaller) level. Only levels entered before any
    level has returned can fail (DegenerateModelError from their first
    M-step); such a level is recorded as not converged and the sweep goes
    on one component smaller, except at k_min, where the error is
    re-raised. A level whose component count collapses below k_min cannot
    become the best model; if no level lands inside [k_min, k_max] a
    DegenerateModelError is raised.
    """
    config = config or EmConfig()
    n = dataset.n
    centers = kmeanspp_init(dataset, config.k_max, config.seed)
    eps0 = min(max(config.eps_init, _EPS_CLAMP), 0.5 - _EPS_CLAMP)
    model = MixtureModel(
        tuple(centers),
        np.full(config.k_max, 1.0 / config.k_max),
        np.full(n, eps0),
    )

    trace_all = []
    converged = {}
    total_updates = 0
    best = None
    best_obj = -math.inf

    while True:
        try:
            res = run_em_fixed_k(dataset, model, config)
        except DegenerateModelError:
            # A returned level leaves k columns of mass > n/2, so S > k*n/2 and no
            # later M-step can leave every column at or below n/2: best is None here.
            converged[model.k] = False
            if model.k <= config.k_min:
                raise
        else:
            trace_all.extend(
                (k_nz, total_updates + it, obj) for k_nz, it, obj in res.trace
            )
            total_updates += res.iterations
            model = res.model
            converged[model.k] = res.converged
            obj_final = res.trace[-1][2]
            if config.k_min <= model.k <= config.k_max and obj_final >= best_obj:
                best = model
                best_obj = obj_final
        if model.k <= config.k_min:
            break
        model = _force_annihilate(model)

    if best is None:
        raise DegenerateModelError(
            f"no annihilation level produced a model with k in "
            f"[{config.k_min}, {config.k_max}]"
        )
    return EmReport(
        best=best,
        k_hat=best.k,
        best_objective=best_obj,
        objective_trace=trace_all,
        converged=converged,
        iterations_total=total_updates,
    )


# ---------------------------------------------------------------------------
# model file I/O


def save_model(report: EmReport, path, meta: Optional[dict] = None) -> None:
    """Write the fitted model and run record as JSON."""
    best = report.best
    doc = {
        "n": best.n,
        "k_hat": report.k_hat,
        "solutions": [x.text for x in best.x],
        "alpha": [float(a) for a in best.alpha],
        "eps": [float(e) for e in best.eps],
        "best_objective": report.best_objective,
        "iterations_total": report.iterations_total,
        "converged": {str(k): bool(v) for k, v in report.converged.items()},
    }
    if meta:
        doc["meta"] = meta
    _write_json_object(path, doc)


def load_model(path):
    """Read a model file; returns (MixtureModel, full document dict)."""
    doc = _read_json_object(path)
    with _parse_fields(path):
        model = MixtureModel(
            tuple(BitString.from_text(t) for t in doc["solutions"]), doc["alpha"], doc["eps"])
    return model, doc
