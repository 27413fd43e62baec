"""qem_mix: recover likely noiseless quantum-circuit outputs from noisy shots.

Pipeline: a Hamming-neighborhood filter discards shots consistent with
uniform depolarizing noise, then an MML-penalized EM algorithm fits a
Bernoulli bit-flip mixture over the survivors, estimating the solution
strings, their weights, the per-bit flip probabilities, and the number of
solutions K.
"""

__version__ = "0.1.0"

from .shotdata import (
    BitString,
    ShotDataset,
    hamming_distance,
    load_counts,
    load_shots_text,
    save_counts,
)
from .synth import (
    GroundTruth,
    NoiseSpec,
    generate_shots,
    sample_flip_probabilities,
    sample_ground_truth,
)
from .depfilter import (
    FilterConfig,
    FilterReport,
    compute_threshold,
    filter_dataset,
    select_radius,
    support_counts,
)
from .emcore import (
    EmConfig,
    EmReport,
    MixtureModel,
    e_step,
    kmeanspp_init,
    log_likelihood,
    m_step_alpha,
    m_step_eps,
    m_step_x,
    run_em,
    run_em_fixed_k,
)
from .metrics import (
    EvalResult,
    ber,
    hellinger_fidelity,
    model_to_distribution,
)
from .harness import (
    NoiseGrid,
    SweepConfig,
    SweepRow,
    aggregate,
    run_pipeline,
    run_sweep,
)

__all__ = [
    "BitString", "ShotDataset", "hamming_distance",
    "load_counts", "load_shots_text", "save_counts",
    "GroundTruth", "NoiseSpec", "generate_shots",
    "sample_flip_probabilities", "sample_ground_truth",
    "FilterConfig", "FilterReport", "compute_threshold",
    "filter_dataset", "select_radius", "support_counts",
    "EmConfig", "EmReport", "MixtureModel",
    "e_step", "kmeanspp_init", "log_likelihood",
    "m_step_alpha", "m_step_eps", "m_step_x",
    "run_em", "run_em_fixed_k",
    "EvalResult", "ber", "hellinger_fidelity", "model_to_distribution",
    "NoiseGrid", "SweepConfig", "SweepRow", "aggregate",
    "run_pipeline", "run_sweep",
]
