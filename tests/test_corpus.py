import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias import (
    DataError,
    OriginLabel,
    ParallelExample,
    read_mono,
    read_parallel,
    write_mono,
    write_parallel,
)
from covbias.corpus import _check_writable
from covbias.fileio import read_section_file, read_tsv

from oracles import bruteforce_writable


def test_read_mono_tokenizes_on_any_whitespace(tmp_path):
    path = tmp_path / "mono.txt"
    path.write_text("a b\tc\nd   e\n", encoding="utf-8")
    assert list(read_mono(str(path))) == [("a", "b", "c"), ("d", "e")]


def test_read_mono_empty_file_is_empty_stream(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert list(read_mono(str(path))) == []


def test_blank_line_reports_its_line_number(tmp_path):
    path = tmp_path / "mono.txt"
    path.write_text("a b\n\nc\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: line 2 is empty$"):
        list(read_mono(str(path)))


def test_whitespace_only_line_is_empty(tmp_path):
    path = tmp_path / "mono.txt"
    path.write_text("a\n   \t \n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: line 2 is empty$"):
        list(read_mono(str(path)))


def test_read_parallel_pairs_lines(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a b\nc\n", encoding="utf-8")
    tgt.write_text("x\ny z\n", encoding="utf-8")
    examples = list(read_parallel(str(src), str(tgt)))
    assert [e.source for e in examples] == [("a", "b"), ("c",)]
    assert [e.target for e in examples] == [("x",), ("y", "z")]
    assert examples[0].source_pos is None


def test_a_bare_carriage_return_is_whitespace_inside_a_line(tmp_path):
    r"""Lines end at "\n" only, so pairs stay aligned; "\r\n" ends a line as "\n" does."""
    sources = [("a", "b", "b", "a"), ("a", "a", "b")]
    targets = [("x", "y"), ("y", "x", "x", "x", "y")]
    for stem, newline in (("lf", b"\n"), ("crlf", b"\r\n")):
        src, tgt = tmp_path / f"{stem}.src", tmp_path / f"{stem}.tgt"
        src.write_bytes(b"a b\rb a\na a b\n".replace(b"\n", newline))
        tgt.write_bytes(b"x y\ny x\rx x y\n".replace(b"\n", newline))
        examples = list(read_parallel(str(src), str(tgt)))
        assert [(e.source, e.target) for e in examples] == list(zip(sources, targets))
        assert list(read_mono(str(src))) == sources


def test_read_parallel_line_count_mismatch_names_line(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a\nb\nc\n", encoding="utf-8")
    tgt.write_text("x\ny\n", encoding="utf-8")
    message = rf"^{re.escape(str(tgt))} ended at line 3 but other input\(s\) continue$"
    with pytest.raises(DataError, match=message):
        list(read_parallel(str(src), str(tgt)))


def test_read_parallel_with_pos(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    spos = tmp_path / "s.pos"
    src.write_text("a b\n", encoding="utf-8")
    tgt.write_text("x\n", encoding="utf-8")
    spos.write_text("NOUN VERB\n", encoding="utf-8")
    (example,) = read_parallel(str(src), str(tgt), str(spos))
    assert example.source_pos == ("NOUN", "VERB")
    assert example.target_pos is None
    tpos = tmp_path / "t.pos"
    tpos.write_text("PRON\n", encoding="utf-8")
    (example,) = read_parallel(str(src), str(tgt), None, str(tpos))
    assert (example.source_pos, example.target_pos) == (None, ("PRON",))
    (example,) = read_parallel(str(src), str(tgt), str(spos), str(tpos))
    assert (example.source_pos, example.target_pos) == (("NOUN", "VERB"), ("PRON",))


def test_pos_misalignment_names_line(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    spos = tmp_path / "s.pos"
    src.write_text("a b\nc d\n", encoding="utf-8")
    tgt.write_text("x\ny\n", encoding="utf-8")
    spos.write_text("NOUN VERB\nNOUN\n", encoding="utf-8")
    message = rf"^{re.escape(str(spos))}: line 2 has 1 tags for 2 tokens$"
    with pytest.raises(DataError, match=message):
        list(read_parallel(str(src), str(tgt), str(spos)))


def test_example_is_immutable_and_validated():
    example = ParallelExample(("a",), ("x",))
    with pytest.raises(AttributeError):
        example.source = ("b",)
    with pytest.raises(DataError, match="^source has 2 tokens but 1 tags$"):
        ParallelExample(("a", "b"), ("x",), source_pos=("NOUN",))
    with pytest.raises(DataError, match="^target has 2 tokens but 1 tags$"):
        ParallelExample(("a",), ("b", "c"), None, ("X",))


def test_replace_and_make_check_the_tag_counts_and_pickling_round_trips():
    example = ParallelExample(("a",), ("b",), ("NOUN",), None)
    with pytest.raises(DataError, match="^source has 1 tokens but 2 tags$"):
        example._replace(source_pos=("X", "Y"))
    with pytest.raises(DataError, match="^target has 1 tokens but 2 tags$"):
        ParallelExample._make((("a",), ("b",), None, ("X", "Y")))
    replaced = example._replace(target_pos=("VERB",))
    assert replaced == (("a",), ("b",), ("NOUN",), ("VERB",))
    assert type(replaced) is ParallelExample
    assert ParallelExample._make(replaced) == replaced
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(replaced, protocol))
        assert (type(copy), copy) == (ParallelExample, replaced)


def test_origin_label_codes():
    assert OriginLabel.SOURCE_ORIGINAL.code == "S"
    assert OriginLabel.from_code("T") is OriginLabel.TARGET_ORIGINAL
    with pytest.raises(DataError):
        OriginLabel.from_code("X")


def test_write_rejects_tokens_with_whitespace(tmp_path):
    with pytest.raises(DataError):
        write_mono([("a b",)], str(tmp_path / "out.txt"))
    with pytest.raises(DataError):
        write_mono([()], str(tmp_path / "out.txt"))


_token = st.text(alphabet="abcxyzXYZ0189_.:#é漢", min_size=1, max_size=6)
_sentence = st.lists(_token, min_size=1, max_size=8).map(tuple)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(_sentence, _sentence), min_size=1, max_size=20))
def test_parallel_round_trip_reproduces_tokens(tmp_path_factory, pairs):
    tmp = tmp_path_factory.mktemp("rt")
    src, tgt = str(tmp / "s.txt"), str(tmp / "t.txt")
    examples = [ParallelExample(s, t) for s, t in pairs]
    write_parallel(examples, src, tgt)
    back = list(read_parallel(src, tgt))
    assert [(e.source, e.target) for e in back] == pairs


def test_streaming_memory_is_bounded_by_lines_not_file_size(tmp_path):
    src = tmp_path / "big_s.txt"
    tgt = tmp_path / "big_t.txt"
    line = " ".join(f"tok{i}" for i in range(12)) + "\n"
    with open(src, "w", encoding="utf-8") as s, open(tgt, "w", encoding="utf-8") as t:
        for _ in range(40_000):
            s.write(line)
            t.write(line)
    assert src.stat().st_size > 2_000_000

    out_s, out_t = str(tmp_path / "o_s.txt"), str(tmp_path / "o_t.txt")
    tracemalloc.start()
    write_parallel(read_parallel(str(src), str(tgt)), out_s, out_t)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1_000_000, f"streaming pipeline peaked at {peak} bytes"


# Every character for which str.isspace() is true.
_WHITESPACE = (
    " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    + "".join(chr(c) for c in range(0x2000, 0x200B))
    + "\u2028\u2029\u202f\u205f\u3000"
)
# Token characters, including invisible ones that are not whitespace.
_PLAIN = "ab_é漢\u200b\u180e\ufeff"
_any_token = st.text(
    alphabet=st.one_of(st.sampled_from(_PLAIN), st.sampled_from(_WHITESPACE)),
    max_size=4,
)
_any_sentence = st.lists(_any_token, max_size=5).map(tuple)
_plain_sentence = st.lists(
    st.text(alphabet=_PLAIN, min_size=1, max_size=4), min_size=1, max_size=5
).map(tuple)


def test_whitespace_alphabet_is_every_isspace_character():
    assert set(_WHITESPACE) == {chr(c) for c in range(0x110000) if chr(c).isspace()}


@settings(max_examples=400, deadline=None)
@given(_any_sentence, st.integers(1, 10**6))
def test_write_check_accepts_exactly_what_the_oracle_accepts(sentence, line_no):
    if bruteforce_writable(sentence):
        assert _check_writable(sentence, line_no) == " ".join(sentence)
        return
    with pytest.raises(DataError) as err:
        _check_writable(sentence, line_no)
    message = str(err.value)
    assert message.startswith(f"line {line_no}: ")
    if sentence:
        first_bad = next(t for t in sentence if not bruteforce_writable((t,)))
        assert repr(first_bad) in message
    else:
        assert "empty sentence" in message


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_plain_sentence, _plain_sentence), min_size=1, max_size=6))
def test_accepted_sentences_read_back_exactly(tmp_path_factory, pairs):
    assert all(bruteforce_writable(s) and bruteforce_writable(t) for s, t in pairs)
    tmp = tmp_path_factory.mktemp("ws")
    mono, src, tgt = str(tmp / "m.txt"), str(tmp / "s.txt"), str(tmp / "t.txt")
    assert write_mono([s for s, _ in pairs], mono) == len(pairs)
    assert list(read_mono(mono)) == [s for s, _ in pairs]
    assert write_parallel([ParallelExample(s, t) for s, t in pairs], src, tgt) == len(pairs)
    assert [(e.source, e.target) for e in read_parallel(src, tgt)] == pairs


_LINE = {"src": "a b\n", "tgt": "x\n", "spos": "N V\n", "tpos": "N\n"}


def _write_inputs(tmp_path, lengths):
    """One file per (kind, line count); returns their paths in argument order."""
    paths = []
    for kind, n in lengths:
        path = tmp_path / f"{kind}.txt"
        path.write_text(_LINE[kind] * n, encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "lengths, short, line_no",
    [
        ([("src", 3), ("tgt", 2)], "tgt", 3),
        ([("src", 2), ("tgt", 3)], "src", 3),
        ([("src", 0), ("tgt", 1)], "src", 1),
        ([("src", 3), ("tgt", 3), ("spos", 1), ("tpos", 3)], "spos", 2),
        ([("src", 3), ("tgt", 2), ("spos", 3), ("tpos", 2)], "tgt", 3),
        ([("src", 3), ("tgt", 3), ("spos", 3), ("tpos", 2)], "tpos", 3),
        ([("src", 4), ("tgt", 4), ("spos", 2), ("tpos", 1)], "tpos", 2),
    ],
)
def test_line_count_mismatch_names_the_first_file_to_run_out(
    tmp_path, lengths, short, line_no
):
    paths = _write_inputs(tmp_path, lengths)
    named = paths[[kind for kind, _ in lengths].index(short)]
    message = rf"^{re.escape(named)} ended at line {line_no} but other input\(s\) continue$"
    with pytest.raises(DataError, match=message):
        list(read_parallel(*paths))


def test_line_count_mismatch_with_only_a_target_pos_file(tmp_path):
    src, tgt, tpos = _write_inputs(tmp_path, [("src", 2), ("tgt", 2), ("tpos", 1)])
    message = rf"^{re.escape(tpos)} ended at line 2 but other input\(s\) continue$"
    with pytest.raises(DataError, match=message):
        list(read_parallel(src, tgt, None, tpos))


@pytest.mark.parametrize("blank", [0, 1, 2, 3])
def test_whitespace_only_line_names_its_file_and_line(tmp_path, blank):
    paths = _write_inputs(tmp_path, [("src", 3), ("tgt", 3), ("spos", 3), ("tpos", 3)])
    kind = ["src", "tgt", "spos", "tpos"][blank]
    with open(paths[blank], "w", encoding="utf-8") as handle:
        handle.write(_LINE[kind] + " \t\u3000\xa0\n" + _LINE[kind])
    message = rf"^{re.escape(paths[blank])}: line 2 is empty$"
    with pytest.raises(DataError, match=message):
        list(read_parallel(*paths))
    if blank < 2:
        with pytest.raises(DataError, match=message):
            list(read_mono(paths[blank]))


def test_last_line_without_newline_reads_the_same(tmp_path):
    def read(name, src_text, tgt_text):
        src, tgt = tmp_path / f"{name}.src", tmp_path / f"{name}.tgt"
        src.write_text(src_text, encoding="utf-8")
        tgt.write_text(tgt_text, encoding="utf-8")
        return list(read_mono(str(src))), list(read_parallel(str(src), str(tgt)))

    with_newline = read("nl", "a b\nc d\n", "x\ny z\n")
    without_newline = read("eof", "a b\nc d", "x\ny z")
    assert with_newline == without_newline
    assert with_newline[0] == [("a", "b"), ("c", "d")]
    mixed = read("mixed", "a b\nc d", "x\ny z\n")
    assert mixed == with_newline


@pytest.mark.parametrize(
    "call, text, line",
    [
        (lambda path: read_tsv(path, ["a"], int), "a\tb\n1\t2\n3\n", 3),
        (read_section_file, "[a]\nX\n\n[]\n", 4),
        (read_section_file, "[a]\nX\n[b c]\nY\n", 3),
        (read_section_file, "[a]\nX\n# again\n[a]\nY\n", 4),
        (read_section_file, "# none yet\nX\n[a]\nY\n", 2),
        (read_section_file, "[a]\nX\nY Z\n", 3),
        (read_section_file, "[a]\nX\n[b]\n# no tokens\n", 3),
        (lambda path: write_mono([("a",), ()], path), "", 2),
        (lambda path: write_mono([("a",), ("b",), ("c", "d e")], path), "", 3),
    ],
    ids=["tsv field count", "empty section name", "whitespace in section name",
         "duplicate section", "token before any section", "two tokens on a line",
         "section lists no tokens", "empty sentence", "token with whitespace"],
)
def test_a_data_error_that_names_a_line_carries_it(tmp_path, call, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as err:
        call(str(path))
    assert re.findall(r"\bline (\d+)", str(err.value)) == [str(line)]
