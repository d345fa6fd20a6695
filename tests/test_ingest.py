import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oomscene import (
    DatasetManifest,
    DimensionError,
    FormatError,
    HardDetection,
    ImageRecord,
    ParseError,
    PipelineError,
    SoftPatch,
    VocabularyError,
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
