"""Property tests: the file loaders fail only with their documented error
types, and EM keeps its invariants on arbitrary small data."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qem_mix.emcore import EmConfig, load_model, run_em
from qem_mix.errors import DegenerateModelError, QemError
from qem_mix.harness import load_sweep_config
from qem_mix.shotdata import ShotDataset, load_counts, load_shots_text
from qem_mix.synth import load_ground_truth

LOADERS = [load_counts, load_shots_text, load_model, load_ground_truth, load_sweep_config]

# a fixed alphabet: the default one costs seconds of Unicode table set-up
texts = st.text(alphabet="01 b_+x.\u00e9\u2028\x00", max_size=8)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)
bit_texts = st.text(alphabet="01", min_size=1, max_size=6)
fields = scalars | st.lists(scalars | bit_texts, max_size=3) | json_values
# documents shaped like each file format, with arbitrary values, so the
# field readers are reached and not only the top-level checks
documents = st.one_of(
    json_values,
    st.dictionaries(texts, fields, max_size=4),
    st.fixed_dictionaries({
        "solutions": st.lists(bit_texts, max_size=3) | fields,
        "alpha": fields, "weights": fields, "eps": fields, "p": fields,
    }),
    st.fixed_dictionaries({
        "n_values": fields, "k_values": fields, "s_values": fields,
        "noise": st.lists(st.dictionaries(st.sampled_from(["p", "eps_low", "eps_high"]),
                                          fields), max_size=2) | fields,
    }, optional={"repeats": fields, "subsample_points": fields,
                 "filter": fields, "em": fields}),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "input"


def _load_all(path):
    for loader in LOADERS:
        try:
            loader(path)
        except (QemError, OSError):
            pass


@settings(max_examples=60)
@given(body=st.binary(max_size=64))
def test_loaders_on_arbitrary_bytes(scratch, body):
    scratch.write_bytes(body)
    _load_all(scratch)


@settings(max_examples=150)
@given(doc=documents)
def test_loaders_on_arbitrary_json(scratch, doc):
    scratch.write_text(json.dumps(doc))
    _load_all(scratch)


@settings(max_examples=60)
@given(
    bits=st.integers(1, 6).flatmap(
        lambda n: arrays(np.uint8, st.tuples(st.integers(1, 60), st.just(n)),
                         elements=st.integers(0, 1))),
    k=st.integers(1, 4).flatmap(lambda k_max: st.tuples(st.integers(1, k_max), st.just(k_max))),
    mml=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_em_invariants(bits, k, mml, seed):
    k_min, k_max = k
    config = EmConfig(k_min=k_min, k_max=k_max, seed=seed, mml_enabled=mml, max_iters=50)
    try:
        report = run_em(ShotDataset.from_bit_matrix(bits), config)
    except DegenerateModelError:
        return
    model = report.best
    assert abs(model.alpha.sum() - 1.0) < 1e-9
    assert np.all((model.eps > 0.0) & (model.eps < 0.5))
    assert k_min <= report.k_hat <= k_max
