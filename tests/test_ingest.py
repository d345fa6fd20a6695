import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oomscene.ingest
from oomscene import (
    DatasetManifest,
    DimensionError,
    FormatError,
    HardDetection,
    ImageRecord,
    ObjectVocabulary,
    ParseError,
    PipelineConfig,
    PipelineError,
    SceneClassSet,
    SoftPatch,
    VocabularyError,
    evaluate_bundle,
    fit_pipeline,
    max_scores,
    parse_manifest,
    parse_manifest_text,
    to_text,
    write_manifest,
)
from helpers import (
    hard_record,
    make_classes,
    make_vocab,
    one_record_manifest,
    random_hard_manifest,
    random_soft_manifest,
    soft_record,
)

HARD_TEXT = """\
#vocab chair table lamp
#classes shop cafe
#mode hard
#split train

img a0 shop domain=web
det chair 0.9 0.1 0.1 0.5 0.5
det table 0.4 0.2 0.2 0.8 0.9
det chair 0.2 0.0 0.0 1.0 1.0

img a1 cafe
det lamp 0.7 0.3 0.3 0.6 0.6
det table 0.55 0.1 0.5 0.9 0.9
det lamp 0.1 0.25 0.25 0.75 0.75
"""

SOFT_TEXT = """\
#vocab chair table lamp
#classes shop cafe
#mode soft
#split train

img s0 shop
patch 0 0.1 0.5 0.9
patch 1 0.3 0.2 0.4

img s1 cafe
patch 0 0.6 0.6 0.6
"""


class TestParsing:
    def test_counts_and_names(self):
        m = parse_manifest_text(HARD_TEXT)
        assert len(m.records) == 2
        assert len(m.classes) == 2
        assert len(m.vocabulary) == 3
        assert all(len(r.detections) == 3 for r in m.records)
        assert m.records[0].domain_tag == "web"
        assert m.records[1].domain_tag is None
        assert m.records[0].scene_class == 0
        assert m.split_tag == "train"
        det = m.records[0].detections[1]
        assert (det.object_index, det.score, det.box) == (1, 0.4, (0.2, 0.2, 0.8, 0.9))
        assert type(det.box) is tuple and {type(v) for v in det.box} == {float}

    def test_soft_parsing(self):
        m = parse_manifest_text(SOFT_TEXT)
        assert m.mode == "soft"
        assert [len(r.detections) for r in m.records] == [2, 1]
        np.testing.assert_array_equal(m.records[0].detections[0].scores,
                                      [0.1, 0.5, 0.9])

    def test_empty_manifest(self):
        text = "#vocab a\n#classes c\n#mode hard\n"
        with pytest.raises(FormatError, match="empty manifest"):
            parse_manifest_text(text)

    def test_soft_wrong_vector_length_names_record(self):
        text = SOFT_TEXT.replace("patch 0 0.6 0.6 0.6", "patch 0 0.6 0.6")
        with pytest.raises(DimensionError, match="s1"):
            parse_manifest_text(text)

    def test_unknown_object_name(self):
        with pytest.raises(VocabularyError, match="sofa"):
            parse_manifest_text(HARD_TEXT.replace("det chair 0.9", "det sofa 0.9"))

    def test_unknown_class_name(self):
        with pytest.raises(VocabularyError, match="garage"):
            parse_manifest_text(HARD_TEXT.replace("img a0 shop", "img a0 garage"))

    def test_malformed_line_reports_number(self):
        text = HARD_TEXT.replace("det table 0.4 0.2 0.2 0.8 0.9",
                                 "det table nope 0.2 0.2 0.8 0.9")
        with pytest.raises(ParseError, match="line 8"):
            parse_manifest_text(text)

    def test_mixed_modes_rejected(self):
        text = HARD_TEXT.replace("det lamp 0.7 0.3 0.3 0.6 0.6",
                                 "patch 0 0.1 0.2 0.3")
        with pytest.raises(FormatError, match="mixed"):
            parse_manifest_text(text)

    def test_mode_argument_must_match(self):
        with pytest.raises(FormatError, match="hard-mode"):
            parse_manifest_text(HARD_TEXT, mode="soft")

    def test_bad_box_is_parse_error(self):
        text = HARD_TEXT.replace("det chair 0.9 0.1 0.1 0.5 0.5",
                                 "det chair 0.9 0.5 0.1 0.1 0.5")
        with pytest.raises(ParseError, match="line 7"):
            parse_manifest_text(text)

    def test_unlabeled_records(self):
        text = HARD_TEXT.replace("#split train", "#split test").replace(
            "img a0 shop domain=web", "img a0 ?"
        )
        m = parse_manifest_text(text)
        assert m.records[0].scene_class is None

    def test_train_manifest_requires_every_class(self):
        text = HARD_TEXT.replace("img a1 cafe", "img a1 shop")
        with pytest.raises(FormatError, match="cafe"):
            parse_manifest_text(text)

    @pytest.mark.parametrize("text, line, match", [
        # the second #vocab would silently rename the detection of `a` to `b`
        ("#vocab a b\n#classes c\n#mode hard\n\nimg i c\n"
         "det a 0.5 0.1 0.1 0.2 0.2\n#vocab b a\n", 7,
         "#vocab header after the first record"),
        ("#vocab a\n#classes c\n#mode hard\n\nimg i c\n\n#split test\n", 7,
         "#split header after the first record"),
        ("#vocab a\n#vocab a\n#classes c\n#mode hard\n", 2, "repeated #vocab"),
        ("#vocab a\n#classes c\n#classes c\n#mode hard\n", 3, "repeated #classes"),
        ("#vocab a\n#classes c\n#mode hard\n#mode hard\n", 4, "repeated #mode"),
        ("#vocab\n#classes c\n#mode hard\n", 1, "#vocab header: .*empty"),
        ("#vocab a b a\n#classes c\n#mode hard\n", 1, "#vocab header: duplicate"),
        ("#vocab a\n#classes c ?\n#mode hard\n", 2, "#classes header: .*reserved"),
    ], ids=["vocab-after-record", "split-after-record", "repeated-vocab",
            "repeated-classes", "repeated-mode", "empty-vocab", "duplicate-object",
            "reserved-class"])
    def test_bad_header_line(self, text, line, match):
        with pytest.raises(ParseError, match=f"line {line}: {match}"):
            parse_manifest_text(text)

    def test_zero_detection_record_is_legal(self):
        text = HARD_TEXT + "\nimg a2 shop\n"
        m = parse_manifest_text(text)
        assert len(m.records[2].detections) == 0


class TestRoundTrip:
    def test_hard_round_trip(self, tmp_path):
        m = parse_manifest_text(HARD_TEXT)
        path = tmp_path / "m.txt"
        write_manifest(m, path)
        m2 = parse_manifest(path)
        assert to_text(m) == to_text(m2)
        assert m2.records[0].detections[0].score == 0.9

    def test_random_round_trips(self):
        rng = np.random.default_rng(7)
        for i in range(5):
            m = random_hard_manifest(rng, 3, 5, 12)
            assert to_text(parse_manifest_text(to_text(m))) == to_text(m)
        for i in range(3):
            m = random_soft_manifest(rng, 2, 4, 6)
            assert to_text(parse_manifest_text(to_text(m))) == to_text(m)


# finite floats, the extremes included; repr and float() must round-trip them
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([5e-324, -5e-324, 1.7976931348623157e308,
                                    -1.7976931348623157e308, -0.0, 0.0]))
UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, 1.0]))
# one token of the file format: no character that str.split() splits on
TOKEN_CHARS = st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"))
COLUMNS = ("labels", "image", "object_index", "score", "box", "patch_id", "scores")


@st.composite
def interval(draw):
    lo, hi = draw(UNIT), draw(UNIT)
    if not lo < hi:
        lo, hi = (hi, lo) if hi < lo else (0.0, 1.0)
    return lo, hi


@st.composite
def record_manifests(draw):
    """Manifests built record by record, in either mode."""
    mode = draw(st.sampled_from(["hard", "soft"]))
    n_obj, n_cls = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    records = []
    for i in range(draw(st.integers(1, 4))):
        dets = []
        for _ in range(draw(st.integers(0, 3))):
            if mode == "hard":
                (x0, x1), (y0, y1) = draw(interval()), draw(interval())
                dets.append(HardDetection(draw(st.integers(0, n_obj - 1)), draw(FLOATS),
                                          (x0, y0, x1, y1)))
            else:
                dets.append(SoftPatch(draw(st.integers(-2**63, 2**63 - 1)),
                                      draw(st.lists(FLOATS, min_size=n_obj, max_size=n_obj))))
        records.append(ImageRecord(
            draw(st.text(TOKEN_CHARS, min_size=1, max_size=6)) + str(i),
            draw(st.one_of(st.none(), st.integers(0, n_cls - 1))), dets, mode,
            draw(st.one_of(st.none(), st.text(TOKEN_CHARS, max_size=4)))))
    return DatasetManifest(make_vocab(n_obj), make_classes(n_cls), records,
                           draw(st.sampled_from(["test", "target"])), mode)


def assert_same_columns(a, b):
    assert (a.image_ids, a.domain_tags) == (b.image_ids, b.domain_tags)
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


class TestColumns:
    def test_hard_arrays(self):
        m = parse_manifest_text(HARD_TEXT)
        assert m.image_ids == ("a0", "a1") and m.domain_tags == ("web", None)
        np.testing.assert_array_equal(m.labels, [0, 1])
        np.testing.assert_array_equal(m.image, [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(m.object_index, [0, 1, 0, 2, 1, 2])
        np.testing.assert_array_equal(m.score, [0.9, 0.4, 0.2, 0.7, 0.55, 0.1])
        np.testing.assert_array_equal(m.box[1], [0.2, 0.2, 0.8, 0.9])
        np.testing.assert_array_equal(m.bounds, [0, 3, 6])
        assert m.patch_id is None and m.scores is None

    def test_soft_arrays(self):
        m = parse_manifest_text(SOFT_TEXT.replace("img s1 cafe", "img s1 ?")
                                .replace("#split train", "#split test"))
        np.testing.assert_array_equal(m.labels, [0, -1])
        np.testing.assert_array_equal(m.image, [0, 0, 1])
        np.testing.assert_array_equal(m.patch_id, [0, 1, 0])
        np.testing.assert_array_equal(m.scores, [[0.1, 0.5, 0.9], [0.3, 0.2, 0.4],
                                                 [0.6, 0.6, 0.6]])
        assert m.object_index is None and m.score is None and m.box is None

    def test_manifest_is_immutable(self):
        m = parse_manifest_text(HARD_TEXT)
        with pytest.raises(AttributeError):
            m.split_tag = "test"
        with pytest.raises(ValueError):
            m.score[0] = 0.0

    @pytest.mark.parametrize("make", [random_hard_manifest, random_soft_manifest])
    def test_records_view_rebuilds_the_manifest(self, make):
        m = make(np.random.default_rng(5), 2, 4, 9)
        parsed = parse_manifest_text(to_text(m))
        again = DatasetManifest(parsed.vocabulary, parsed.classes, parsed.records,
                                parsed.split_tag, parsed.mode)
        assert_same_columns(again, m)

    @pytest.mark.parametrize("field, value, match", [
        ("image_id", "a b", r"record 0: image id 'a b'"),
        ("image_id", "", r"record 0: image id ''"),
        ("image_id", "a\nb", r"record 0: image id 'a\\nb'"),
        ("domain_tag", "u v", r"record 'img': domain tag 'u v'"),
        ("domain_tag", "u\x85v", r"record 'img': domain tag"),
        ("split_tag", "a b", r"split tag 'a b'"),
        ("split_tag", "", r"split tag ''"),
    ])
    def test_refuses_what_the_parser_would_reject(self, field, value, match):
        # to_text would write it, and the parser reject or misread the file
        fields = dict(image_id="img", domain_tag=None, split_tag="test")
        fields[field] = value
        rec = ImageRecord(fields["image_id"], 0, (), "hard", fields["domain_tag"])
        with pytest.raises(FormatError, match=match):
            DatasetManifest(make_vocab(1), make_classes(1), (rec,), fields["split_tag"],
                            "hard")

    def test_empty_domain_tag_round_trips(self):
        rec = ImageRecord("img", 0, (), "hard", "")
        m = DatasetManifest(make_vocab(1), make_classes(1), (rec,), "test", "hard")
        assert parse_manifest_text(to_text(m)).domain_tags == ("",)

    def test_file_stem_with_whitespace_gives_the_split_tag(self, tmp_path):
        path = tmp_path / "train  set.txt"
        path.write_text(HARD_TEXT.replace("#split train\n", ""), encoding="utf-8")
        assert parse_manifest(path).split_tag == "train_set"

    @pytest.mark.parametrize("chunk", [1, 5, 7])
    @pytest.mark.parametrize("text", [HARD_TEXT, SOFT_TEXT], ids=["hard", "soft"])
    def test_chunked_conversion_parses_the_same(self, text, chunk, monkeypatch):
        whole = parse_manifest_text(text)
        monkeypatch.setattr(oomscene.ingest, "_CHUNK_TOKENS", chunk)
        assert_same_columns(parse_manifest_text(text), whole)

    @settings(max_examples=200, deadline=None)
    @given(record_manifests())
    def test_parse_serialize_parse_round_trips(self, m):
        text = to_text(m)
        parsed = parse_manifest_text(text)
        assert to_text(parsed) == text
        assert_same_columns(parsed, m)


def test_name_sets_keep_their_own_type_and_wording():
    vocab, classes = ObjectVocabulary(("a",)), SceneClassSet(("a",))
    assert vocab != classes
    assert not isinstance(vocab, SceneClassSet) and not isinstance(classes, ObjectVocabulary)
    with pytest.raises(VocabularyError, match="^unknown object name 'b'$"):
        vocab.index("b")
    with pytest.raises(VocabularyError, match="^unknown scene class name 'b'$"):
        classes.index("b")
    with pytest.raises(FormatError, match="^duplicate object vocabulary name 'a'$"):
        ObjectVocabulary(("a", "a"))
    with pytest.raises(FormatError, match="^scene class set name 'b c' is empty"):
        SceneClassSet(("a", "b c"))

BOX = (0.1, 0.1, 0.2, 0.2)
# from_arrays arguments of a one-record hard manifest with one detection
ONE_DETECTION = dict(split_tag="test", mode="hard", image_ids=["a"], labels=[0],
                     domain_tags=[None], image=[0], object_index=[0], score=[0.5], box=[BOX])
TWO_DETECTIONS = dict(image=[0, 0], object_index=[0, 0], score=[0.5, 0.5])


@pytest.mark.parametrize("change, record, error, match", [
    (dict(object_index=[1.5]), hard_record([HardDetection(1.5, 0.5, BOX)]),
     FormatError, "object index 1.5 is not a 64-bit integer"),
    (dict(labels=[0.7]), hard_record([], scene_class=0.7),
     FormatError, "class index 0.7 is not a 64-bit integer"),
    (dict(labels=["1"]), hard_record([], scene_class="1"),
     FormatError, "class index '1' is not a 64-bit integer"),
    (dict(image=[0.5]), None, FormatError, "record index 0.5 is not a 64-bit integer"),
    (dict(mode="soft", object_index=None, score=None, box=None, patch_id=[2**64],
          scores=[[0.5, 0.5]]), soft_record([SoftPatch(2**64, [0.5, 0.5])]),
     FormatError, f"patch id {2**64} is not a 64-bit integer"),
    # reshape(-1, 4) would regroup these twelve numbers into three boxes
    (dict(image=[0, 0, 0], object_index=[0, 0, 0], score=[0.5] * 3,
          box=np.full((4, 3), 0.5)), None,
     DimensionError, r"boxes have shape \(4, 3\), expected \[n, 4\]"),
    (dict(box=[BOX[:3]]), hard_record([HardDetection(0, 0.5, BOX[:3])]),
     DimensionError, r"boxes have shape \(1, 3\)"),
    # three numbers and five: eight in all, which make two boxes when chained
    (dict(TWO_DETECTIONS, box=[BOX[:3], BOX + (0.3,)]),
     hard_record([HardDetection(0, 0.5, BOX[:3]), HardDetection(0, 0.5, BOX + (0.3,))]),
     FormatError, "boxes: "),
    (dict(domain_tags=[None, None]), None, DimensionError, "2 domain tags for 1 records"),
], ids=["fractional-object", "fractional-label", "string-label", "fractional-image",
        "patch-id-beyond-int64", "box-array-4x3", "three-number-box", "ragged-boxes",
        "domain-tags-length"])
def test_values_that_convert_badly_are_refused(change, record, error, match):
    args = {**ONE_DETECTION, **change}
    with pytest.raises(error, match=match):
        DatasetManifest.from_arrays(make_vocab(2), make_classes(1), **args)
    if record is not None:
        with pytest.raises(error, match=match):
            DatasetManifest(make_vocab(2), make_classes(1), (record,), "test", record.mode)


def threshold_indicator(record, object_index, theta):
    """1 iff the record's best detection of the object scores at least theta,
    as the occurrence model counts it."""
    return int(max_scores(one_record_manifest(record, 3))[0, object_index] >= theta)


class TestThresholdIndicator:
    def _record(self):
        return hard_record([
            HardDetection(0, 0.3, (0.1, 0.1, 0.2, 0.2)),
            HardDetection(0, 0.8, (0.1, 0.1, 0.2, 0.2)),
            HardDetection(1, 0.5, (0.1, 0.1, 0.2, 0.2)),
        ])

    def test_present_above_threshold(self):
        assert threshold_indicator(self._record(), 0, 0.5) == 1

    def test_absent_above_threshold(self):
        assert threshold_indicator(self._record(), 0, 0.9) == 0

    def test_no_detections_of_object(self):
        assert threshold_indicator(self._record(), 2, 0.0) == 0

    def test_score_equal_to_threshold_counts(self):
        assert threshold_indicator(self._record(), 0, 0.8) == 1

    def test_non_increasing_in_theta(self):
        rng = np.random.default_rng(3)
        m = random_hard_manifest(rng, 2, 4, 10)
        best = max_scores(m)
        thetas = np.linspace(0, 1, 21)
        for row in best:
            for o in range(4):
                vals = [int(row[o] >= t) for t in thetas]
                assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestMaxScores:
    def test_hard(self):
        rec = hard_record([
            HardDetection(1, 0.3, (0.1, 0.1, 0.2, 0.2)),
            HardDetection(1, 0.8, (0.1, 0.1, 0.2, 0.2)),
        ])
        out = max_scores(one_record_manifest(rec, 3))[0]
        assert out[1] == 0.8
        assert np.isneginf(out[0]) and np.isneginf(out[2])

    def test_soft_uses_best_patch(self):
        rec = ImageRecord(
            "s", 0,
            (SoftPatch(0, [0.1, 0.9, 0.2]), SoftPatch(1, [0.4, 0.1, 0.3])),
            "soft",
        )
        np.testing.assert_array_equal(max_scores(one_record_manifest(rec, 3)),
                                      [[0.4, 0.9, 0.3]])

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_one_row_per_record(self, mode):
        rng = np.random.default_rng(4)
        make = random_hard_manifest if mode == "hard" else random_soft_manifest
        m = make(rng, 2, 5, 12)
        best = max_scores(m)
        assert best.shape == (12, 5)
        for row, rec in zip(best, m.records):
            if mode == "hard":
                want = [max((d.score for d in rec.detections if d.object_index == o),
                            default=-np.inf) for o in range(5)]
            else:
                want = np.max([p.scores for p in rec.detections], axis=0)
            np.testing.assert_array_equal(row, want)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           patch_counts=st.lists(st.integers(0, 4), min_size=1, max_size=8),
           n_objects=st.integers(1, 5))
    def test_soft_matches_per_record_max(self, seed, patch_counts, n_objects):
        # records without patches included, alone or between others
        rng = np.random.default_rng(seed)
        records = [soft_record([SoftPatch(k, rng.random(n_objects)) for k in range(n)],
                               image_id=f"img{i}", scene_class=None)
                   for i, n in enumerate(patch_counts)]
        m = DatasetManifest(make_vocab(n_objects), make_classes(1), tuple(records),
                            "test", "soft")
        want = [np.max([p.scores for p in rec.detections], axis=0)
                if rec.detections else np.full(n_objects, -np.inf) for rec in records]
        np.testing.assert_array_equal(max_scores(m), np.reshape(want, (len(records), n_objects)))


# faults of the whole file, which no single line carries
_WHOLE_FILE = re.compile(r"missing #vocab|empty manifest|training manifest has no images")
_JUNK = ["nan", "inf", "-inf", "1e999", "abc", "sofa", "garage", "?", "-1", "0.5",
         "7", "domain=x", "#vocab", "#mode", "img", "det", "patch"]


@st.composite
def mutated_manifests(draw):
    lines = draw(st.sampled_from([HARD_TEXT, SOFT_TEXT])).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "tokens"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split()
            k = draw(st.integers(0, len(toks)))
            tok_op = draw(st.sampled_from(["drop", "duplicate", "swap", "insert"]))
            if tok_op == "insert" or not toks:
                toks.insert(k, draw(st.sampled_from(_JUNK)))
            else:
                k = min(k, len(toks) - 1)
                if tok_op == "drop":
                    del toks[k]
                elif tok_op == "duplicate":
                    toks.insert(k, toks[k])
                else:
                    j = draw(st.integers(0, len(toks) - 1))
                    toks[k], toks[j] = toks[j], toks[k]
            lines[i] = " ".join(toks)
    return "\n".join(lines)


class TestFuzzedManifests:
    @settings(max_examples=500, deadline=None)
    @given(mutated_manifests())
    def test_parses_or_names_the_faulty_line(self, text):
        try:
            parse_manifest_text(text)
        except PipelineError as exc:
            assert re.search(r"\bline \d+: ", str(exc)) or _WHOLE_FILE.search(str(exc)), \
                str(exc)

    @settings(max_examples=300, deadline=None)
    @given(mutated_manifests())
    def test_the_error_names_the_first_faulty_line(self, text):
        # the text up to line L raises the same error; the text before it no
        # line-level error
        try:
            parse_manifest_text(text)
            return
        except PipelineError as exc:
            fault = exc
        found = re.match(r"line (\d+): ", str(fault))
        if found is None:
            assert _WHOLE_FILE.search(str(fault)), str(fault)
            return
        line = int(found.group(1))
        lines = text.splitlines()
        with pytest.raises(PipelineError) as again:
            parse_manifest_text("\n".join(lines[:line]))
        assert (type(again.value), str(again.value)) == (type(fault), str(fault))
        try:
            parse_manifest_text("\n".join(lines[:line - 1]))
        except PipelineError as earlier:
            assert _WHOLE_FILE.search(str(earlier)), str(earlier)

    @pytest.mark.parametrize("text, old, new, match", [
        (HARD_TEXT, "det lamp 0.1", "det lamp nan", "line 14: detection score"),
        (SOFT_TEXT, "patch 1 0.3 0.2 0.4", "patch 1 0.3 x 0.4", "line 8: score 'x'"),
        (SOFT_TEXT, "patch 0 0.6 0.6 0.6", "patch 0 0.6 0.6 inf", "line 11: patch scores"),
    ], ids=["hard", "soft-number", "soft-finite"])
    @pytest.mark.parametrize("chunk", [1, None], ids=["chunk-1", "chunk-default"])
    def test_detection_fault_precedes_a_later_structural_one(self, text, old, new, match,
                                                             chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(oomscene.ingest, "_CHUNK_TOKENS", chunk)
        with pytest.raises(ParseError, match=f"^{match}"):
            parse_manifest_text(text.replace(old, new) + "\nbogus line\n")

    @pytest.mark.parametrize("text, old, new, line", [
        (HARD_TEXT, "det chair 0.9", "det sofa 0.9", 7),
        (HARD_TEXT, "img a1 cafe", "img a1 garage", 11),
        (SOFT_TEXT, "patch 1 0.3 0.2 0.4", "patch 1 0.3 nan 0.4", 8),
        (SOFT_TEXT, "patch 1 0.3 0.2 0.4", "patch 1 0.3 inf 0.4", 8),
        (SOFT_TEXT, "patch 0 0.6 0.6 0.6", "patch 0 0.6 0.6", 11),
    ], ids=["unknown-object", "unknown-class", "nan-patch-score", "inf-patch-score",
            "short-patch"])
    def test_line_level_faults_name_the_line(self, text, old, new, line):
        with pytest.raises(PipelineError, match=f"^line {line}: "):
            parse_manifest_text(text.replace(old, new))


@pytest.fixture(scope="module")
def bundles():
    """A small trained bundle per mode."""
    rng = np.random.default_rng(11)
    small = dict(object_count=3, topic_count=1, sgd_lambdas=(1e-3,), sgd_eta0s=(0.5,),
                 sgd_epochs=2, seed=1)
    return {"hard": fit_pipeline(random_hard_manifest(rng, 2, 5, 12),
                                 PipelineConfig(**small)),
            "soft": fit_pipeline(random_soft_manifest(rng, 2, 5, 12),
                                 PipelineConfig(mode="soft", pca_dim=2, codebook_size=2,
                                                **small))}


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_parse_and_evaluate_build_no_record_objects(bundles, mode, monkeypatch):
    make = random_hard_manifest if mode == "hard" else random_soft_manifest
    text = to_text(make(np.random.default_rng(12), 2, 5, 8, split_tag="test"))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (HardDetection, SoftPatch, ImageRecord):
        monkeypatch.setattr(cls, "__init__", refuse)
    pred, scores, labels = evaluate_bundle(bundles[mode], parse_manifest_text(text))
    assert pred.shape == labels.shape == (8,) and scores.shape == (8, 2)
    with pytest.raises(AssertionError, match="built a"):
        oomscene.ingest.parse_manifest_text(text).records
