"""Malformed bundle files end in a PipelineError and never run code.

Every case starts from one small valid soft-mode bundle (PCA, codebook, bool
fallback mask and ensemble all present) and damages it: truncation, flipped
bytes, or edits of its JSON header.
"""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oomscene import (
    ClassPrior,
    CompatibilityError,
    FormatError,
    PcaTransform,
    PipelineConfig,
    PipelineError,
    ThresholdGrid,
    VladCodebook,
    fit_pipeline,
    load_bundle,
    save_bundle,
)
from oomscene.bundle import (
    _BUNDLE_TYPES,
    BUNDLE_MAGIC,
    BUNDLE_VERSION,
    _to_tree,
    _write_container,
)

from helpers import container, dense_basis, dense_patch_rows, fit_pca_dense, random_soft_manifest

PREAMBLE = 14  # magic, version, header length


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bundles")


TRAIN = random_soft_manifest(np.random.default_rng(0), 3, 5, 12)


@pytest.fixture(scope="module")
def trained():
    config = PipelineConfig(mode="soft", object_count=3, pca_dim=2, codebook_size=2,
                            topic_count=2, sgd_lambdas=(1e-3,), sgd_eta0s=(0.5,),
                            sgd_epochs=2, seed=1)
    return fit_pipeline(TRAIN, config)


@pytest.fixture(scope="module")
def valid(workdir, trained):
    path = workdir / "valid.bundle"
    save_bundle(trained, path)
    return path.read_bytes()


def split(data):
    (hlen,) = struct.unpack_from(">I", data, PREAMBLE - 4)
    return json.loads(data[PREAMBLE:PREAMBLE + hlen]), data[PREAMBLE + hlen:]


def join(header, payload):
    return container(b"OOMSCENE", header, payload)


def slots(tree):
    """(parent, key) of every value below the root of a JSON tree."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            found.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    return found


def tagged(tree, tags):
    """Every one-key JSON object in the tree whose key is in ``tags``."""
    return [node[key] for node, key in slots(tree) if isinstance(node[key], dict)
            and len(node[key]) == 1 and next(iter(node[key])) in tags]


def load(workdir, data):
    path = workdir / "case.bundle"
    path.write_bytes(data)
    return load_bundle(path)


def test_valid_bundle_round_trips(workdir, valid):
    bundle = load(workdir, valid)
    save_bundle(bundle, workdir / "again.bundle")
    assert (workdir / "again.bundle").read_bytes() == valid


@settings(max_examples=50)
@given(cut=st.integers(min_value=0))
def test_truncated(workdir, valid, cut):
    with pytest.raises(PipelineError):
        load(workdir, valid[:cut % len(valid)])


@settings(max_examples=100)
@given(flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_flipped_bytes_load_or_raise_pipeline_error(workdir, valid, flips):
    # a flip inside a name or a float can leave a well-formed bundle, so
    # loading may succeed; anything else must be a PipelineError
    data = bytearray(valid)
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    try:
        load(workdir, bytes(data))
    except PipelineError:
        pass


@given(data=st.data())
def test_swapped_type_name(workdir, valid, data):
    header, payload = split(valid)
    node = data.draw(st.sampled_from(tagged(header, _BUNDLE_TYPES)))
    (name, body), = node.items()
    other = data.draw(st.sampled_from(sorted(set(_BUNDLE_TYPES) - {name})))
    node[other] = node.pop(name)
    with pytest.raises(PipelineError):
        load(workdir, join(header, payload))


@given(data=st.data())
def test_edited_number_loads_or_raises_pipeline_error(workdir, valid, data):
    # zero, negative or huge values trip the constructors' own checks (grid
    # step, sigma, SGD settings, pyramid levels) or the shape checks
    header, payload = split(valid)
    numbers = [(node, key) for node, key in slots(header["bundle"])
               if type(node[key]) in (int, float) and key != "array"]
    node, key = data.draw(st.sampled_from(numbers))
    node[key] = data.draw(st.sampled_from(
        [0, -1, -0.5, 1e-300, 10**12, float("nan"), float("inf")]))
    try:
        load(workdir, join(header, payload))
    except PipelineError:
        pass


@pytest.mark.parametrize("field, value", [("seed", -1), ("prior", "flat"),
                                          ("sgd_epochs", 0),
                                          ("sgd_lambdas", [float("inf")])])
def test_forged_config_value_is_refused(workdir, valid, field, value):
    header, payload = split(valid)
    header["bundle"]["ModelBundle"]["config"]["PipelineConfig"][field] = value
    with pytest.raises(FormatError, match="PipelineConfig rejects its fields"):
        load(workdir, join(header, payload))


def _swap_vocabulary_class(tree):
    # ObjectVocabulary and SceneClassSet have the same fields
    vocab = tree["vocabulary"]
    vocab["SceneClassSet"] = vocab.pop("ObjectVocabulary")


def _number_for_array(tree):
    tree["occurrence"]["OccurrenceModel"]["probs"] = 0


@pytest.mark.parametrize("edit, field", [
    (_swap_vocabulary_class, "bundle.vocabulary"),
    (_number_for_array, "bundle.occurrence.probs"),
], ids=["class-swap", "number-for-array"])
def test_field_must_hold_its_declared_type(workdir, valid, edit, field):
    header, payload = split(valid)
    edit(header["bundle"]["ModelBundle"])
    with pytest.raises(PipelineError, match=f"{field} does not hold"):
        load(workdir, join(header, payload))


@given(data=st.data())
def test_array_index_out_of_range(workdir, valid, data):
    header, payload = split(valid)
    node = data.draw(st.sampled_from(tagged(header, {"array"})))
    n = len(header["arrays"])
    node["array"] = data.draw(st.integers(max_value=-1) | st.integers(min_value=n))
    with pytest.raises(PipelineError, match="out of range"):
        load(workdir, join(header, payload))


@given(data=st.data())
def test_bad_shape(workdir, valid, data):
    header, payload = split(valid)
    spec = data.draw(st.sampled_from(header["arrays"]))
    axis = data.draw(st.integers(0, len(spec["shape"]) - 1))
    spec["shape"][axis] = data.draw(st.integers(max_value=-1) | st.just(10**12))
    # 10**12 is a well-formed count: only the size check stops it, before
    # any array is made
    field = "payload" if spec["shape"][axis] > 0 else r"arrays\["
    with pytest.raises(PipelineError, match=field):
        load(workdir, join(header, payload))


@given(data=st.data())
def test_bad_dtype(workdir, valid, data):
    header, payload = split(valid)
    spec = data.draw(st.sampled_from(header["arrays"]))
    spec["dtype"] = data.draw(st.sampled_from(
        ["<f4", ">f8", "<i8", "|u1", "|O", "<c16", "", 8, None, ["<f8"]]))
    with pytest.raises(PipelineError, match=r"arrays\["):
        load(workdir, join(header, payload))


@pytest.mark.parametrize("forge, field", [
    (lambda b: replace(b, posterior=replace(b.posterior, grid=ThresholdGrid(0.0, 1.0, 0.1))),
     "threshold grid"),
    (lambda b: replace(b, posterior=replace(
        b.posterior, fallback_mask=b.posterior.fallback_mask[:, :-1])), "fallback mask"),
    (lambda b: replace(b, posterior=replace(b.posterior, prior=ClassPrior.uniform(2))),
     "class prior"),
    (lambda b: replace(b, selection=replace(
        b.selection, selected=(-1,) + b.selection.selected[1:])), "selection"),
    # a repeated object would leave its first slot's rows zero
    (lambda b: replace(b, selection=replace(
        b.selection, selected=b.selection.selected[:1] + b.selection.selected[:-1])),
     "selection lists object .* twice"),
    (lambda b: replace(b, pca=PcaTransform(b.pca.mean[:-1], b.pca.bases, b.pca.mixing)),
     "PCA mean"),
    (lambda b: replace(b, pca=PcaTransform(b.pca.mean[:-1],
                                           b.pca.bases[:-1] + (b.pca.bases[-1][:-1],),
                                           b.pca.mixing)),
     "PCA input"),
    # a dense fit of the training patches' rows: one block across the three
    # selected objects' columns, which project_cells would refuse
    (lambda b: replace(b, pca=fit_pca_dense(
        dense_patch_rows(TRAIN, b.posterior, b.selection), b.config.pca_dim)),
     "PCA input is not one block per selected object, each 3 columns wide"),
    (lambda b: replace(b, codebook=VladCodebook(b.codebook.centers[:, :-1],
                                                b.codebook.sigma)), "codebook"),
    (lambda b: replace(b, ensemble=replace(b.ensemble, biases=b.ensemble.biases[:, :1])),
     "ensemble biases"),
    (lambda b: replace(b, ensemble=replace(b.ensemble, weights=b.ensemble.weights[:2],
                                           biases=b.ensemble.biases[:2])),
     "ensemble classes"),
], ids=["grid", "fallback-mask", "prior", "selection", "selection-repeat", "pca-mean",
        "pca-input", "pca-dense-block",
        "codebook", "biases", "classes"])
def test_forged_shapes_name_the_component(workdir, trained, forge, field):
    path = workdir / "forged.bundle"
    with pytest.raises(CompatibilityError, match=field):
        save_bundle(forge(trained), path)
    # written past save_bundle's own validate(), as a forged file would be
    arrays = []
    tree = _to_tree(forge(trained), arrays)
    _write_container(path, BUNDLE_MAGIC, BUNDLE_VERSION, {"bundle": tree}, arrays)
    with pytest.raises(CompatibilityError, match=field):
        load_bundle(path)


@pytest.mark.parametrize("array, node, message", [
    (lambda b: b.pca.bases[0], "bundle.pca: PcaTransform", "PCA block basis"),
    (lambda b: b.topics.centroids, "bundle.topics: KMeansModel", "topic centroids"),
    (lambda b: b.ensemble.weights, "bundle.ensemble: TopicEnsemble", "ensemble weights"),
    (lambda b: b.ensemble.biases, "bundle.ensemble: TopicEnsemble", "ensemble biases"),
    (lambda b: b.posterior.posteriors, "bundle.posterior: PosteriorModel", "posteriors"),
    (lambda b: b.occurrence.probs, "bundle.occurrence: OccurrenceModel",
     "occurrence probabilities"),
    (lambda b: b.posterior.prior.weights, "bundle.posterior.prior: ClassPrior",
     "prior weights"),
    (lambda b: b.selection.scores, "bundle.selection: DiscriminantSelection",
     "discriminability scores"),
], ids=["pca-basis", "centroids", "ensemble-weights", "ensemble-biases", "posteriors", "occurrence", "prior",
        "selection-scores"])
def test_forged_nan_in_an_array_is_refused(workdir, trained, array, node, message):
    # a NaN basis entry, weight or posterior would make scores NaN and argmax
    # pick the first NaN class; a NaN centroid would send every descriptor to
    # topic 0; a NaN prior weight passes the sign and sum checks
    arrays = []
    tree = _to_tree(trained, arrays)
    index = next(i for i, a in enumerate(arrays) if a is array(trained))
    arrays[index] = arrays[index].copy()
    arrays[index].flat[0] = np.nan
    path = workdir / "forged.bundle"
    _write_container(path, BUNDLE_MAGIC, BUNDLE_VERSION, {"bundle": tree}, arrays)
    with pytest.raises(FormatError, match=f"{node} rejects its fields "
                                          f"\\({message} must be finite\\)"):
        load_bundle(path)


_SIGMA = (r"bundle.codebook: VladCodebook rejects its fields \(sigma must be positive "
          r"with 2 sigma\^2 a finite normal float")


@pytest.mark.parametrize("tag, field, value, message", [
    ("VladCodebook", "sigma", float("inf"), "bundle.codebook.sigma holds inf, not a finite"),
    ("VladCodebook", "sigma", 1e308, _SIGMA + ", got 1e[+]308"),
    ("VladCodebook", "sigma", 1e-200, _SIGMA + ", got 1e-200"),
    ("KMeansModel", "inertia", float("nan"), "bundle.topics.inertia holds nan, not a finite"),
], ids=["sigma-infinity", "sigma-overflow", "sigma-underflow", "inertia-nan"])
def test_forged_scalar_float_is_refused(workdir, trained, tag, field, value, message):
    # the header is JSON, which decodes NaN and Infinity: an infinite sigma
    # would evaluate without an error, 2 sigma^2 overflows at 1e308 and
    # underflows to zero at 1e-200, making every score NaN
    arrays = []
    tree = _to_tree(trained, arrays)
    tagged(tree, {tag})[0][tag][field] = value
    path = workdir / "forged.bundle"
    _write_container(path, BUNDLE_MAGIC, BUNDLE_VERSION, {"bundle": tree}, arrays)
    with pytest.raises(FormatError, match=message):
        load_bundle(path)


def test_forged_pyramid_is_refused_before_encoding(workdir, trained):
    # without an ensemble no descriptor length bounds the layout; 3000 x 3000
    # regions would make every encoded image take gigabytes
    arrays = []
    tree = _to_tree(replace(trained, topics=None, ensemble=None), arrays)
    tagged(tree, {"PipelineConfig"})[0]["PipelineConfig"]["pyramid"] = [[3000, 3000]]
    path = workdir / "forged.bundle"
    _write_container(path, BUNDLE_MAGIC, BUNDLE_VERSION, {"bundle": tree}, arrays)
    with pytest.raises(FormatError, match="bundle.config: PipelineConfig.*9000000 regions"):
        load_bundle(path)


def test_version_3_bundle_is_refused_naming_both_versions(workdir, valid):
    # version 3 stored the pyramid layout beside config.pyramid and an
    # untyped dict of training records; version 4 keeps each fact once
    assert BUNDLE_VERSION == 4
    path = workdir / "v3.bundle"
    path.write_bytes(valid[:8] + struct.pack(">H", 3) + valid[10:])
    with pytest.raises(FormatError,
                       match="version field holds 3, this reader reads model bundle version 4"):
        load_bundle(path)


def test_each_fact_is_stored_once(valid):
    header, _ = split(valid)
    keys = {key for node, key in slots(header["bundle"]) if isinstance(key, str)}
    assert not keys & {"dict", "layout", "fallback_rule", "aggregation"}
    topics = tagged(header, {"KMeansModel"})[0]["KMeansModel"]
    assert set(topics) == {"centroids", "inertia", "iterations_run"}
    ensemble = tagged(header, {"TopicEnsemble"})[0]["TopicEnsemble"]
    assert ensemble["topic_sizes"] == [6, 6]
    assert [next(iter(c)) for c in ensemble["configs"]] == ["SgdConfig"] * 2


def test_pca_is_stored_as_its_factors(workdir, trained, valid):
    arrays = []
    _to_tree(trained, arrays)
    pca = trained.pca
    assert any(a is pca.mixing for a in arrays)
    assert all(any(a is q for a in arrays) for q in pca.bases)
    assert not any(a.shape == dense_basis(pca).shape for a in arrays)
    loaded = load_bundle(workdir / "valid.bundle")
    assert dense_basis(loaded.pca).tobytes() == dense_basis(pca).tobytes()
