from collections import Counter
from pathlib import Path

import pytest

from covbias import (
    DataError,
    ManifestEntry,
    OriginLabel,
    ParallelExample,
    bias_tag,
    detag,
    finetune_split,
    manifest_to_tsv,
    merge_augment,
    read_parallel,
    write_parallel,
)
from covbias.dataprep import DEFAULT_ORIGIN_TAG, MARKER_POS_TAG

S = OriginLabel.SOURCE_ORIGINAL
T = OriginLabel.TARGET_ORIGINAL


def _examples():
    return [
        ParallelExample(("guten", "tag"), ("good", "day")),
        ParallelExample(("hallo",), ("hello",)),
        ParallelExample(("wie", "geht", "es"), ("how", "are", "you")),
    ]


def test_tag_marks_only_target_original_sources():
    tagged = list(bias_tag(_examples(), [S, T, S]))
    assert tagged[0] == _examples()[0]
    assert tagged[1].source == (DEFAULT_ORIGIN_TAG, "hallo")
    assert tagged[1].target == ("hello",)  # the target side is never touched
    assert tagged[2] == _examples()[2]


def test_tag_keeps_pos_annotations_aligned():
    examples = [
        ParallelExample(
            ("hallo", "welt"),
            ("hello", "world"),
            source_pos=("INTJ", "NOUN"),
            target_pos=("INTJ", "NOUN"),
        )
    ]
    (tagged,) = bias_tag(examples, [T])
    assert tagged.source == (DEFAULT_ORIGIN_TAG, "hallo", "welt")
    assert tagged.source_pos == (MARKER_POS_TAG, "INTJ", "NOUN")
    assert tagged.target_pos == ("INTJ", "NOUN")


def test_custom_tag_token():
    (tagged,) = bias_tag([_examples()[1]], [T], "<ORIG=T>")
    assert tagged.source[0] == "<ORIG=T>"
    assert list(detag([tagged], "<ORIG=T>")) == [_examples()[1]]
    message = "^tag token must be non-empty and whitespace-free$"
    for bad in ("", "a b", "a\tb"):
        # bias_tag refuses it when called, before it reads a line
        with pytest.raises(ValueError, match=message):
            bias_tag(_examples(), [S, T, S], bad)
        with pytest.raises(ValueError, match=message):
            list(detag(_examples(), bad))
        with pytest.raises(ValueError, match=message):
            merge_augment(_examples(), _examples(), tag_token=bad)


def test_tag_collision_reports_the_line():
    examples = [
        ParallelExample(("ok",), ("ok",)),
        ParallelExample((DEFAULT_ORIGIN_TAG, "x"), ("y",)),
    ]
    message = f"^line 2: corpus already contains the tag token '{DEFAULT_ORIGIN_TAG}'$"
    with pytest.raises(DataError, match=message) as err:
        list(bias_tag(examples, [S, S]))
    assert err.value.line_no == 2
    # a collision on the target side is just as ambiguous
    message = f"^line 1: corpus already contains the tag token '{DEFAULT_ORIGIN_TAG}'$"
    with pytest.raises(DataError, match=message):
        list(bias_tag([ParallelExample(("x",), (DEFAULT_ORIGIN_TAG,))], [S]))


def test_tag_label_length_mismatch_both_directions():
    # the shorter input is named with the first line it lacks
    with pytest.raises(DataError, match="^labels ended at line 3 but examples continue$") as err:
        list(bias_tag(_examples(), [S, T]))
    assert err.value.line_no == 3
    with pytest.raises(DataError, match="^examples ended at line 4 but labels continue$") as err:
        list(bias_tag(_examples(), [S, T, S, T]))
    assert err.value.line_no == 4


def test_detag_inverts_tagging():
    labels = [S, T, S]
    tagged = list(bias_tag(_examples(), labels))
    assert list(detag(tagged)) == _examples()


def test_detag_strips_at_most_one_leading_tag():
    doubled = ParallelExample((DEFAULT_ORIGIN_TAG, DEFAULT_ORIGIN_TAG, "x"), ("y",))
    (stripped,) = detag([doubled])
    assert stripped.source == (DEFAULT_ORIGIN_TAG, "x")
    untouched = ParallelExample(("x", DEFAULT_ORIGIN_TAG), ("y",))
    assert list(detag([untouched])) == [untouched]


def test_detag_restores_pos_annotations():
    examples = [
        ParallelExample(("hallo",), ("hello",), source_pos=("INTJ",))
    ]
    tagged = list(bias_tag(examples, [T]))
    assert list(detag(tagged)) == examples


def test_tag_detag_file_round_trip_is_byte_exact(tmp_path):
    src_in, tgt_in = str(tmp_path / "in.src"), str(tmp_path / "in.tgt")
    write_parallel(_examples(), src_in, tgt_in)
    raw_src = Path(src_in).read_bytes()
    raw_tgt = Path(tgt_in).read_bytes()

    tagged = bias_tag(read_parallel(src_in, tgt_in), [T, S, T])
    src_tag, tgt_tag = str(tmp_path / "tag.src"), str(tmp_path / "tag.tgt")
    write_parallel(tagged, src_tag, tgt_tag)

    back = detag(read_parallel(src_tag, tgt_tag))
    src_out, tgt_out = str(tmp_path / "out.src"), str(tmp_path / "out.tgt")
    write_parallel(back, src_out, tgt_out)
    assert Path(src_out).read_bytes() == raw_src
    assert Path(tgt_out).read_bytes() == raw_tgt
    assert Path(tgt_tag).read_bytes() == raw_tgt  # targets never change


def test_finetune_split_keeps_everything_and_the_selection():
    examples = _examples()
    pretrain, finetune, manifest = finetune_split(examples, {3, 1})
    assert pretrain == examples
    assert finetune == [examples[0], examples[2]]  # input order, not set order
    assert manifest == [
        ManifestEntry(1, "pretrain", 1),
        ManifestEntry(2, "pretrain", 2),
        ManifestEntry(3, "pretrain", 3),
        ManifestEntry(1, "finetune", 1),
        ManifestEntry(2, "finetune", 3),
    ]


def test_finetune_split_validates_the_selection():
    with pytest.raises(DataError, match="^selection names line 4 but the corpus has 3 lines$"):
        finetune_split(_examples(), {4})
    with pytest.raises(DataError):
        finetune_split(_examples(), {0})
    pretrain, finetune, manifest = finetune_split(_examples(), set())
    assert pretrain == _examples()
    assert finetune == []
    assert all(entry.provenance == "pretrain" for entry in manifest)


def test_merge_without_options_concatenates():
    authentic, synthetic = _examples()[:2], _examples()[2:]
    merged, manifest = merge_augment(authentic, synthetic)
    assert merged == authentic + synthetic
    assert manifest == [
        ManifestEntry(1, "authentic", 1),
        ManifestEntry(2, "authentic", 2),
        ManifestEntry(3, "synthetic", 1),
    ]


def test_merge_tags_synthetic_sources_only():
    authentic, synthetic = _examples()[:1], _examples()[1:2]
    merged, _ = merge_augment(authentic, synthetic, tag_token="<BT>")
    assert merged[0] == authentic[0]
    assert merged[1].source == ("<BT>", "hallo")
    assert merged[1].target == ("hello",)


def test_merge_collision_checks_both_corpora():
    poisoned = ParallelExample(("<BT>",), ("x",))
    message = "^line 1: corpus already contains the tag token '<BT>'$"
    with pytest.raises(DataError, match=message):
        merge_augment([poisoned], _examples(), tag_token="<BT>")
    with pytest.raises(DataError, match=message):
        merge_augment(_examples(), [poisoned], tag_token="<BT>")
    # without a tag token nothing is tagged, so nothing can collide
    merged, _ = merge_augment([poisoned], [poisoned])
    assert merged == [poisoned, poisoned]


def test_merge_shuffle_is_a_seeded_permutation():
    authentic, synthetic = _examples(), _examples()
    merged1, manifest1 = merge_augment(authentic, synthetic, shuffle_seed=5)
    merged2, manifest2 = merge_augment(authentic, synthetic, shuffle_seed=5)
    assert merged1 == merged2
    assert manifest1 == manifest2
    plain, _ = merge_augment(authentic, synthetic)
    assert Counter(merged1) == Counter(plain)  # same multiset, new order
    merged3, _ = merge_augment(authentic, synthetic, shuffle_seed=6)
    assert Counter(merged3) == Counter(plain)


def test_merge_manifest_partitions_the_output():
    authentic, synthetic = _examples()[:2], _examples()
    merged, manifest = merge_augment(authentic, synthetic, shuffle_seed=9)
    assert [entry.output_line_no for entry in manifest] == list(
        range(1, len(merged) + 1)
    )
    origins = Counter(entry.provenance for entry in manifest)
    assert origins == {"authentic": 2, "synthetic": 3}
    for entry in manifest:
        pool = authentic if entry.provenance == "authentic" else synthetic
        assert merged[entry.output_line_no - 1] == pool[entry.original_line_no - 1]


def test_manifest_tsv_layout():
    tsv = manifest_to_tsv([ManifestEntry(1, "authentic", 7)])
    assert tsv == "output_line_no\tprovenance\toriginal_line_no\n1\tauthentic\t7\n"
