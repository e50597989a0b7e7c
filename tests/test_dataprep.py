import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias import (
    DataError,
    ManifestEntry,
    OriginLabel,
    ParallelExample,
    bias_tag,
    finetune_split,
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


def _paths(tmp_path, stem):
    return str(tmp_path / f"{stem}.src"), str(tmp_path / f"{stem}.tgt")


def _split(tmp_path, examples, lines):
    """finetune_split into files: (pretrain, finetune) as read back, and the manifest."""
    pretrain, finetune = _paths(tmp_path, "pre"), _paths(tmp_path, "fine")
    manifest = list(finetune_split(examples, lines, pretrain, finetune))
    return list(read_parallel(*pretrain)), list(read_parallel(*finetune)), manifest


def _merge(tmp_path, authentic, synthetic, **options):
    """merge_augment into files: the merged corpus as read back, and the manifest."""
    paths = _paths(tmp_path, "merged")
    manifest = list(merge_augment(authentic, synthetic, *paths, **options))
    return list(read_parallel(*paths)), manifest


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


def test_custom_tag_token(tmp_path):
    (tagged,) = bias_tag([_examples()[1]], [T], "<ORIG=T>")
    assert tagged.source == ("<ORIG=T>", "hallo")
    message = "^tag token must be non-empty and whitespace-free$"
    for bad in ("", "a b", "a\tb"):
        # bias_tag refuses it when called, before it reads a line
        with pytest.raises(ValueError, match=message):
            bias_tag(_examples(), [S, T, S], bad)
        with pytest.raises(ValueError, match=message):
            merge_augment(_examples(), _examples(), *_paths(tmp_path, "m"), tag_token=bad)
    assert list(tmp_path.iterdir()) == []


def test_tag_collision_reports_the_line():
    examples = [
        ParallelExample(("ok",), ("ok",)),
        ParallelExample((DEFAULT_ORIGIN_TAG, "x"), ("y",)),
    ]
    message = f"^line 2: corpus already contains the tag token '{DEFAULT_ORIGIN_TAG}'$"
    with pytest.raises(DataError, match=message):
        list(bias_tag(examples, [S, S]))
    # a collision on the target side is just as ambiguous
    message = f"^line 1: corpus already contains the tag token '{DEFAULT_ORIGIN_TAG}'$"
    with pytest.raises(DataError, match=message):
        list(bias_tag([ParallelExample(("x",), (DEFAULT_ORIGIN_TAG,))], [S]))


def test_tag_label_length_mismatch_both_directions():
    # the shorter input is named with the first line it lacks
    with pytest.raises(DataError, match="^labels ended at line 3 but examples continue$"):
        list(bias_tag(_examples(), [S, T]))
    with pytest.raises(DataError, match="^examples ended at line 4 but labels continue$"):
        list(bias_tag(_examples(), [S, T, S, T]))


_words = st.lists(st.sampled_from(["hallo", "welt", "good", "X"]), min_size=1, max_size=4)


@st.composite
def _examples_with_labels(draw):
    examples = []
    for source, target in draw(st.lists(st.tuples(_words, _words), max_size=6)):
        if draw(st.booleans()):
            tags = st.sampled_from(["NOUN", "VERB", MARKER_POS_TAG])
            source_pos = tuple(draw(tags) for _ in source)
            target_pos = tuple(draw(tags) for _ in target)
            examples.append(ParallelExample(tuple(source), tuple(target), source_pos, target_pos))
        else:
            examples.append(ParallelExample(tuple(source), tuple(target)))
    labels = [draw(st.sampled_from([S, T])) for _ in examples]
    return examples, labels


def _detagged(line):
    """A tagged line without its leading tag token and that token's POS marker."""
    assert line.source[0] == DEFAULT_ORIGIN_TAG
    pos = line.source_pos
    if pos is not None:
        assert pos[0] == MARKER_POS_TAG
        pos = pos[1:]
    return ParallelExample(line.source[1:], line.target, pos, line.target_pos)


@settings(max_examples=60, deadline=None)
@given(_examples_with_labels())
def test_detag_inverts_tagging(examples_and_labels):
    """A T line without its first source token and that token's tag is its input; an S line is."""
    examples, labels = examples_and_labels
    tagged = list(bias_tag(examples, labels))
    assert len(tagged) == len(examples)
    for example, label, line in zip(examples, labels, tagged):
        assert (line if label is S else _detagged(line)) == example


def test_detag_restores_pos_annotations():
    example = ParallelExample(("hallo",), ("hello",), source_pos=("INTJ",))
    (tagged,) = bias_tag([example], [T])
    assert tagged.source_pos == (MARKER_POS_TAG, "INTJ")
    assert _detagged(tagged) == example


def test_tag_detag_file_round_trip_is_byte_exact(tmp_path):
    src_in, tgt_in = str(tmp_path / "in.src"), str(tmp_path / "in.tgt")
    write_parallel(_examples(), src_in, tgt_in)
    raw_src = Path(src_in).read_bytes()
    raw_tgt = Path(tgt_in).read_bytes()

    tagged = bias_tag(read_parallel(src_in, tgt_in), [T, S, T])
    src_tag, tgt_tag = str(tmp_path / "tag.src"), str(tmp_path / "tag.tgt")
    write_parallel(tagged, src_tag, tgt_tag)

    # dropping the tag and its space from the tagged lines gives the input bytes back
    prefix = DEFAULT_ORIGIN_TAG.encode("utf-8") + b" "
    lines = Path(src_tag).read_bytes().splitlines(keepends=True)
    assert [line.startswith(prefix) for line in lines] == [True, False, True]
    assert b"".join(line.removeprefix(prefix) for line in lines) == raw_src
    assert Path(tgt_tag).read_bytes() == raw_tgt  # targets never change


def test_finetune_split_keeps_everything_and_the_selection(tmp_path):
    examples = _examples()
    pretrain, finetune, manifest = _split(tmp_path, iter(examples), {3, 1})
    assert pretrain == examples
    assert finetune == [examples[0], examples[2]]  # input order, not set order
    assert manifest == [
        ManifestEntry(1, "pretrain", 1),
        ManifestEntry(2, "pretrain", 2),
        ManifestEntry(3, "pretrain", 3),
        ManifestEntry(1, "finetune", 1),
        ManifestEntry(2, "finetune", 3),
    ]


def test_finetune_split_validates_the_selection(tmp_path):
    with pytest.raises(DataError, match="^selection names line 4 but the corpus has 3 lines$"):
        _split(tmp_path, _examples(), {4})
    with pytest.raises(DataError):
        _split(tmp_path, _examples(), {0})
    assert list(tmp_path.iterdir()) == []  # neither fault wrote a file
    pretrain, finetune, manifest = _split(tmp_path, _examples(), set())
    assert pretrain == _examples()
    assert finetune == []
    assert all(entry.provenance == "pretrain" for entry in manifest)


def test_merge_without_options_concatenates(tmp_path):
    authentic, synthetic = _examples()[:2], _examples()[2:]
    merged, manifest = _merge(tmp_path, iter(authentic), iter(synthetic))
    assert merged == authentic + synthetic
    assert manifest == [
        ManifestEntry(1, "authentic", 1),
        ManifestEntry(2, "authentic", 2),
        ManifestEntry(3, "synthetic", 1),
    ]


def test_merge_tags_synthetic_sources_only(tmp_path):
    authentic, synthetic = _examples()[:1], _examples()[1:2]
    merged, _ = _merge(tmp_path, authentic, synthetic, tag_token="<BT>")
    assert merged[0] == authentic[0]
    assert merged[1].source == ("<BT>", "hallo")
    assert merged[1].target == ("hello",)


def test_merge_collision_checks_both_corpora(tmp_path):
    poisoned = ParallelExample(("<BT>",), ("x",))
    message = "^line 1: corpus already contains the tag token '<BT>'$"
    with pytest.raises(DataError, match=message):
        _merge(tmp_path, [poisoned], _examples(), tag_token="<BT>")
    with pytest.raises(DataError, match=message):
        _merge(tmp_path, _examples(), [poisoned], tag_token="<BT>")
    assert list(tmp_path.iterdir()) == []  # neither fault wrote a file
    # without a tag token nothing is tagged, so nothing can collide
    merged, _ = _merge(tmp_path, [poisoned], [poisoned])
    assert merged == [poisoned, poisoned]


def test_merge_shuffle_is_a_seeded_permutation(tmp_path):
    authentic, synthetic = _examples(), _examples()
    merged1, manifest1 = _merge(tmp_path, authentic, synthetic, shuffle_seed=5)
    merged2, manifest2 = _merge(tmp_path, authentic, synthetic, shuffle_seed=5)
    assert merged1 == merged2
    assert manifest1 == manifest2
    plain, _ = _merge(tmp_path, authentic, synthetic)
    assert Counter(merged1) == Counter(plain)  # same multiset, new order
    merged3, _ = _merge(tmp_path, authentic, synthetic, shuffle_seed=6)
    assert Counter(merged3) == Counter(plain)


def test_merge_shuffle_is_the_seeded_shuffle_of_the_merged_pairs(tmp_path):
    # the merged lines are held as text and an index list is shuffled: the
    # order is the one that shuffling the tagged pairs themselves gives
    authentic, synthetic = _examples() * 3, _examples()[1:] * 2
    tagged = [ParallelExample(("<BT>",) + ex.source, ex.target) for ex in synthetic]
    for seed in (0, 5, 77):
        expected = authentic + tagged
        random.Random(seed).shuffle(expected)
        merged, _ = _merge(tmp_path, authentic, synthetic, tag_token="<BT>", shuffle_seed=seed)
        assert merged == expected


def test_merge_manifest_partitions_the_output(tmp_path):
    authentic, synthetic = _examples()[:2], _examples()
    merged, manifest = _merge(tmp_path, authentic, synthetic, shuffle_seed=9)
    assert [entry.output_line_no for entry in manifest] == list(
        range(1, len(merged) + 1)
    )
    origins = Counter(entry.provenance for entry in manifest)
    assert origins == {"authentic": 2, "synthetic": 3}
    for entry in manifest:
        pool = authentic if entry.provenance == "authentic" else synthetic
        assert merged[entry.output_line_no - 1] == pool[entry.original_line_no - 1]
