"""Malformed bundle files end in a PipelineError and never run code.

Every case starts from one small valid soft-mode bundle (PCA, codebook,
topics and ensemble all present) and damages it: truncation, flipped bytes,
or edits of its JSON header.
"""

import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oomscene import (
    ClassPrior,
    CompatibilityError,
    FormatError,
    KMeansModel,
    PcaTransform,
    PipelineConfig,
    PipelineError,
    PyramidLayout,
    ThresholdGrid,
    TopicEnsemble,
    VladCodebook,
    build_posterior_model,
    fit_pipeline,
    load_bundle,
    save_bundle,
)
from oomscene.bundle import (
    _BUNDLE_TYPES,
    BUNDLE_MAGIC,
    BUNDLE_VERSION,
    DescriptorFile,
    _to_tree,
    _write_container,
    read_descriptor_file,
    write_descriptor_file,
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
        ["<f4", ">f8", "<i8", "|u1", "|b1", "|O", "<c16", "", 8, None, ["<f8"]]))
    with pytest.raises(PipelineError, match=r"arrays\["):
        load(workdir, join(header, payload))


@pytest.mark.parametrize("forge, field", [
    (lambda b: replace(b, occurrence=replace(b.occurrence, grid=ThresholdGrid(0.0, 1.0, 0.1))),
     "threshold grid"),
    # as many points as the config's grid, at other thresholds
    (lambda b: replace(b, occurrence=replace(b.occurrence,
                                             grid=ThresholdGrid(0.5, 1.5, 0.05))),
     "threshold grids differ"),
    (lambda b: replace(b, occurrence=replace(b.occurrence, probs=b.occurrence.probs[:, :, 1:])),
     "occurrence tensor is not objects x classes x threshold grid points"),
    (lambda b: replace(b, prior=ClassPrior.uniform(2)), "class prior"),
    # one ulp off uniform: a posterior the config's prior would not give
    (lambda b: replace(b, prior=ClassPrior(np.nextafter(np.full(3, 1 / 3), [0, 1, 1 / 3])),
                       config=replace(b.config, prior="uniform")),
     "config key 'prior' is 'uniform', but the class prior is not"),
    (lambda b: replace(b, config=replace(b.config, object_count=2)),
     "config key 'object_count' is 2, but the bundle has 3 objects selected"),
    (lambda b: replace(b, config=replace(b.config, topic_count=3)),
     "config key 'topic_count' is 3, but the bundle has 2 topic centroids"),
    (lambda b: replace(b, topics=None, config=replace(b.config, topic_count=1)),
     "config key 'topic_count' is 1, but the bundle has 2 ensemble topics"),
    (lambda b: replace(b, config=replace(b.config, pca_dim=3)),
     "config key 'pca_dim' is 3, but the bundle has 2 PCA output dims"),
    (lambda b: replace(b, config=replace(b.config, codebook_size=3)),
     "config key 'codebook_size' is 3, but the bundle has 2 codebook words"),
    (lambda b: replace(b, config=replace(b.config, sgd_lambdas=(1e-4,))),
     "config keys 'sgd_lambdas', 'sgd_eta0s': an ensemble topic's SGD entry is not"),
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
], ids=["grid", "grid-values", "occurrence-shape", "prior", "prior-not-uniform",
        "object-count", "topic-count", "topic-count-ensemble", "pca-dim", "codebook-size",
        "sgd-grid", "selection", "selection-repeat", "pca-mean", "pca-input",
        "pca-dense-block", "codebook", "biases", "classes"])
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
    (lambda b: b.occurrence.probs, "bundle.occurrence: OccurrenceModel",
     "occurrence probabilities"),
    (lambda b: b.prior.weights, "bundle.prior: ClassPrior", "prior weights"),
    (lambda b: b.selection.scores, "bundle.selection: DiscriminantSelection",
     "discriminability scores"),
], ids=["pca-basis", "centroids", "ensemble-weights", "ensemble-biases", "occurrence", "prior",
        "selection-scores"])
def test_forged_nan_in_an_array_is_refused(workdir, trained, array, node, message):
    # a NaN basis entry, weight or occurrence would make scores NaN and argmax
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


@pytest.mark.parametrize("value", [-1e-300, 1.0000000000000002, 2.0])
def test_forged_occurrence_outside_the_unit_interval_is_refused(workdir, trained, value):
    # a fraction of images outside [0, 1] would make the derived posterior
    # non-finite or negative
    arrays = []
    tree = _to_tree(trained, arrays)
    index = next(i for i, a in enumerate(arrays) if a is trained.occurrence.probs)
    arrays[index] = arrays[index].copy()
    arrays[index].flat[0] = value
    path = workdir / "forged.bundle"
    _write_container(path, BUNDLE_MAGIC, BUNDLE_VERSION, {"bundle": tree}, arrays)
    with pytest.raises(FormatError, match=r"bundle.occurrence: OccurrenceModel rejects its "
                                          r"fields \(occurrence probabilities must lie in "
                                          r"\[0, 1\]\)"):
        load_bundle(path)


@pytest.mark.parametrize("fallback", ["prior", "last-valid"])
def test_posterior_is_derived_from_the_occurrence_prior_and_fallback(workdir, trained,
                                                                     fallback):
    # object 0 is never seen above the fifth threshold: its flagged cells
    # hold the prior or the fifth threshold's column, as config.fallback says
    probs = trained.occurrence.probs.copy()
    probs[0, :, 5:] = 0.0
    bundle = replace(trained, occurrence=replace(trained.occurrence, probs=probs),
                     config=replace(trained.config, fallback=fallback))
    path = workdir / "derived.bundle"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    want = build_posterior_model(bundle.occurrence, bundle.prior, fallback)
    assert want.fallback_mask[0, 5:].all()
    fill = bundle.prior.weights if fallback == "prior" else want.posteriors[0, :, 4]
    assert want.posteriors[0, :, -1].tobytes() == fill.tobytes()
    for got in (bundle.posterior, loaded.posterior):
        assert got.grid == bundle.config.threshold_grid()
        assert got.posteriors.tobytes() == want.posteriors.tobytes()
        assert got.fallback_mask.tobytes() == want.fallback_mask.tobytes()
    assert loaded.posterior is loaded.posterior  # derived once per bundle
    # a replaced bundle derives its own
    other = "prior" if fallback == "last-valid" else "last-valid"
    swapped = replace(loaded, config=replace(loaded.config, fallback=other))
    assert swapped.posterior.posteriors.tobytes() != want.posteriors.tobytes()


def unchecked(cls, **values):
    """A cls built past its constructor's checks, as a forged file holds it."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


@pytest.mark.parametrize("forge, node, message", [
    # without an ensemble no shape check reads the topic model: a 1-D
    # centroid array raised an IndexError and an empty one numpy's empty
    # argmin when topics were assigned
    (lambda b: replace(b, ensemble=None, topics=unchecked(
        KMeansModel, centroids=b.topics.centroids[0], inertia=1.0, iterations_run=1)),
     "topics: KMeansModel", r"topic centroids must be \[topics, dim\] with at least one"),
    (lambda b: replace(b, ensemble=None, topics=unchecked(
        KMeansModel, centroids=b.topics.centroids[:0], inertia=1.0, iterations_run=1)),
     "topics: KMeansModel", r"topic centroids must be \[topics, dim\] with at least one"),
    # without topics, an ensemble of no topics predicted class 0 everywhere
    (lambda b: replace(b, topics=None, ensemble=unchecked(
        TopicEnsemble, weights=b.ensemble.weights[:, :0], biases=b.ensemble.biases[:, :0],
        topic_sizes=(), configs=())),
     "ensemble: TopicEnsemble", r"ensemble weights must be \[classes, topics, dim\]"),
], ids=["centroids-1d", "centroids-empty", "ensemble-no-topics"])
def test_forged_empty_model_is_refused(workdir, trained, forge, node, message):
    arrays = []
    tree = _to_tree(forge(trained), arrays)
    path = workdir / "forged.bundle"
    _write_container(path, BUNDLE_MAGIC, BUNDLE_VERSION, {"bundle": tree}, arrays)
    with pytest.raises(FormatError, match=f"bundle.{node} rejects its fields \\({message}"):
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


def test_version_5_bundle_is_refused_naming_both_versions(workdir, valid):
    # version 5 stored the posterior model, its fallback mask and a copy of
    # the threshold grid beside the occurrence model they are derived from
    assert BUNDLE_VERSION == 6
    path = workdir / "v5.bundle"
    path.write_bytes(valid[:8] + struct.pack(">H", 5) + valid[10:])
    with pytest.raises(FormatError,
                       match="version field holds 5, this reader reads model bundle version 6"):
        load_bundle(path)


def test_each_fact_is_stored_once(valid):
    header, _ = split(valid)
    keys = {key for node, key in slots(header["bundle"]) if isinstance(key, str)}
    assert not keys & {"dict", "layout", "fallback_rule", "aggregation", "PosteriorModel",
                       "posterior", "posteriors", "fallback_mask"}
    assert {spec["dtype"] for spec in header["arrays"]} == {"<f8"}
    assert len(tagged(header, {"ThresholdGrid"})) == 1
    topics = tagged(header, {"KMeansModel"})[0]["KMeansModel"]
    assert set(topics) == {"centroids", "inertia", "iterations_run"}
    ensemble = tagged(header, {"TopicEnsemble"})[0]["TopicEnsemble"]
    assert ensemble["topic_sizes"] == [6, 6]
    assert [next(iter(c)) for c in ensemble["configs"]] == ["SgdConfig"] * 2
    assert all(set(node["SgdConfig"]) == {"lam", "eta0"}
               for node in tagged(header, {"SgdConfig"}))


def test_array_of_another_dtype_is_not_written(workdir, trained):
    # the reader refuses every dtype but <f8, so the writer does too
    probs = trained.occurrence.probs.astype(np.float32)
    path = workdir / "float32.bundle"
    with pytest.raises(TypeError, match="a container holds <f8 arrays only, not <f4"):
        save_bundle(replace(trained, occurrence=replace(trained.occurrence, probs=probs)), path)
    assert not path.exists()


def test_pca_is_stored_as_its_factors(workdir, trained, valid):
    arrays = []
    _to_tree(trained, arrays)
    pca = trained.pca
    assert any(a is pca.mixing for a in arrays)
    assert all(any(a is q for a in arrays) for q in pca.bases)
    assert not any(a.shape == dense_basis(pca).shape for a in arrays)
    loaded = load_bundle(workdir / "valid.bundle")
    assert dense_basis(loaded.pca).tobytes() == dense_basis(pca).tobytes()


def test_container_writes_each_array_from_its_own_buffer(tmp_path):
    # a copy made to write the matrix would hold it twice while encode writes
    matrix = np.random.default_rng(8).random((160, 8192))
    ids = [f"img{i}" for i in range(len(matrix))]
    path = tmp_path / "d.bin"
    tracemalloc.start()
    try:
        write_descriptor_file(path, matrix, ids, PyramidLayout(((1, 1),)), "0" * 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * matrix.nbytes, (peak, matrix.nbytes)
    assert path.read_bytes()[-matrix.nbytes:] == matrix.tobytes()


def test_descriptor_file_is_one_node(tmp_path):
    matrix = np.random.default_rng(9).random((3, 16))
    path = tmp_path / "d.bin"
    write_descriptor_file(path, matrix, ["a", "b", "c"], PyramidLayout(((1, 1), (2, 2))),
                          "0123456789abcdef" * 4)
    header, _ = split(path.read_bytes())
    assert header == {"descriptor": {"DescriptorFile": {
        "matrix": {"array": 0}, "image_ids": ["a", "b", "c"], "layout": [[1, 1], [2, 2]],
        "selection_sha256": "0123456789abcdef" * 4}},
        "arrays": [{"dtype": "<f8", "shape": [3, 16]}]}
    desc = read_descriptor_file(path)
    assert isinstance(desc, DescriptorFile)
    assert desc.matrix.tobytes() == matrix.tobytes()
    assert (desc.image_ids, desc.layout) == (("a", "b", "c"), ((1, 1), (2, 2)))


def forged_layout():
    layout = PyramidLayout()
    object.__setattr__(layout, "levels", ((0, 1),))  # past PyramidLayout's own check
    return layout


@pytest.mark.parametrize("ids, layout, digest, message", [
    (["a"], PyramidLayout(), "0" * 64,
     r"image_ids holds 1 ids, not one per row of a 2-D matrix of shape \(3, 2\)"),
    (["a", "b", "c"], PyramidLayout(), "xyz",
     "selection_sha256 is not 64 lower-case hex characters"),
    (["a", "b", "c"], PyramidLayout(), "A" * 64,
     "selection_sha256 is not 64 lower-case hex characters"),
    (["a", "b", "c"], forged_layout(), "0" * 64,
     "layout is not a pyramid layout .every pyramid level needs rows >= 1"),
], ids=["ids-count", "digest", "digest-case", "layout"])
def test_descriptor_file_the_reader_refuses_is_not_written(tmp_path, ids, layout, digest,
                                                           message):
    path = tmp_path / "d.bin"
    with pytest.raises(ValueError, match=message):
        write_descriptor_file(path, np.zeros((3, 2)), ids, layout, digest)
    assert not path.exists()
