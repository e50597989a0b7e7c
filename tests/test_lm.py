import functools
import hashlib
import math
import os
import random
import struct
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias import (
    MODEL_FORMAT_VERSION,
    DataError,
    FormatError,
    NGramModel,
    perplexity,
)
from covbias.cli import main as cli_main
from covbias.lm import BOS, BOS_ID, EOS, UNK
from oracles import (
    build_model,
    model_bytes,
    tuple_sentence_logprob,
    tuple_train,
    tuple_word_logprob,
)
from synthbed import make_testbed

# Hand-computed reference values, worked from the closed-form estimator
# definitions independently of the implementation.
#
# Corpus {"a a b"}, order 1, min_count 1: events a a b </s>, total 4.
#   counts of counts: n1 = 2 (b, </s>), n2 = 1 (a) -> D = 2/(2+2) = 0.5.
#   lambda = 0.5 * 3/4; uniform mass = 1/4 (vocabulary minus "<s>").
#   p(a)      = (2-.5)/4 + (0.5*3/4)/4 = 0.46875
#   p(b)      = (1-.5)/4 + 0.09375    = 0.21875   (same for </s>)
#   p(<unk>)  = 0        + 0.09375
P_A_UNIGRAM = 0.46875
P_B_UNIGRAM = 0.21875
P_UNK_UNIGRAM = 0.09375

# Corpus {"a b", "b a"}, order 2, min_count 1 (vocabulary {a, b}):
#   the unigram layer uses continuation counts; each event type (a, b, </s>)
#   continues exactly two distinct left contexts, so counts are 2,2,2 out of
#   6 continuation events, n1 = 0, and D1 falls back to 0.75.
P1_A = (2 - 0.75) / 6 + (0.75 * 3 / 6) * (1 / 4)
#   every seen bigram occurs once in a context of total 2 with 2 types:
#   p(w|h) = (1-.75)/2 + (.75*2/2) * p1(w) = 0.125 + 0.75 * p1(w)
P2_SEEN = 0.125 + 0.75 * P1_A
LOGPROB_AB = 3 * math.log(P2_SEEN)  # p(a|<s>) * p(b|a) * p(</s>|b)
PPL_AB_CORPUS = math.exp(-2 * LOGPROB_AB / 6)


def _model_aab():
    return NGramModel.train([("a", "a", "b")], order=1, min_count=1)


def _model_abba():
    return NGramModel.train([("a", "b"), ("b", "a")], order=2, min_count=1)


def test_unigram_probabilities_match_hand_computation():
    model = _model_aab()
    ids = model.token_ids
    p = {w: math.exp(model.logprobs[(ids[w],)]) for w in ("a", "b", UNK, EOS)}
    assert math.isclose(p["a"], P_A_UNIGRAM, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(p["b"], P_B_UNIGRAM, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(p[EOS], P_B_UNIGRAM, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(p[UNK], P_UNK_UNIGRAM, rel_tol=0, abs_tol=1e-12)
    assert P_A_UNIGRAM + 2 * P_B_UNIGRAM + P_UNK_UNIGRAM == 1.0


def test_bigram_model_matches_hand_computation():
    model = _model_abba()
    got = model.logprob(("a", "b"))
    assert got.token_count == 3
    assert math.isclose(got.total_logprob, LOGPROB_AB, rel_tol=0, abs_tol=1e-12)
    # an event unseen in its context backs off to the unigram layer
    p_a_given_a = math.exp(model.logprob_word(("a",), "a"))
    assert math.isclose(p_a_given_a, 0.75 * P1_A, rel_tol=0, abs_tol=1e-12)


def test_perplexity_matches_hand_computation():
    model = _model_abba()
    got = perplexity(model, [("a", "b"), ("b", "a")])
    assert math.isclose(got, PPL_AB_CORPUS, rel_tol=0, abs_tol=1e-12)


def test_hand_built_uniform_model_scores_uniformly():
    third = math.log(1.0 / 3.0)
    model = build_model(1, (UNK, BOS, EOS, "a"), {(0,): third, (2,): third, (3,): third})
    got = model.logprob(("a", "a", "q")).total_logprob
    assert math.isclose(got, 4 * third, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(perplexity(model, [("a",), ("q", "a")]), 3.0, rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("args", [(), (2, ("a",), {}, {})], ids=["no-arguments", "tables"])
def test_calling_the_class_is_refused(args):
    """A model enters through train or load; the class itself builds none."""
    message = r"^build an NGramModel with NGramModel\.train or NGramModel\.load$"
    with pytest.raises(TypeError, match=message):
        NGramModel(*args)


@pytest.mark.parametrize("command", ["perplexity", "fluency"])
def test_a_perplexity_beyond_the_float_range_is_a_data_error(tmp_path, capsys, command):
    """exp(1000) overflows a float: exit 2, no output and no traceback."""
    model = tmp_path / "steep.lm"
    model.write_bytes(
        model_bytes(1, (UNK, BOS, EOS, "a"), {(0,): -1000.0, (2,): -1000.0, (3,): -1000.0})
    )
    text, pos, out = tmp_path / "in.txt", tmp_path / "in.pos", tmp_path / "out.tsv"
    text.write_text("a\n", encoding="utf-8")
    pos.write_text("NOUN\n", encoding="utf-8")
    models = {
        "perplexity": ["--model", str(model)],
        "fluency": ["--pos", str(pos), "--plain-lm", str(model), "--abstracted-lm", str(model)],
    }
    argv = [command, "--input", str(text), *models[command], "--output", str(out)]
    assert cli_main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "covbias: error: perplexity overflows: exp of 1000.0, the mean negative"
        " log-probability per event, is beyond the float range\n"
    )


def _context_mass(model, context):
    predictable = [t for t in model.id_to_token if t != BOS]
    return math.fsum(math.exp(model.logprob_word(context, w)) for w in predictable)


def test_every_context_distribution_normalizes():
    corpus = [("a", "b", "c"), ("b", "c", "a"), ("a", "a", "b"), ("c",)]
    for order in (1, 2, 3):
        model = NGramModel.train(corpus, order=order, min_count=1)
        words = [UNK, EOS, "a", "b", "c"]
        contexts = [()]
        if order >= 2:
            contexts += [(w,) for w in words + [BOS]]
        if order >= 3:
            contexts += [(u, v) for u in words + [BOS] for v in words]
            contexts.append((BOS, BOS))
        for ctx in contexts:
            mass = _context_mass(model, ctx)
            assert math.isclose(mass, 1.0, rel_tol=0, abs_tol=1e-9), (order, ctx, mass)


def test_bos_is_never_predicted():
    model = _model_abba()
    assert model.logprob_word((), BOS) == -math.inf
    assert (BOS_ID,) not in model.logprobs


def test_sentence_scoring_counts_the_terminator():
    model = _model_aab()
    score = model.logprob(("b", "b"))
    expected = 3 * math.log(P_B_UNIGRAM)  # b, b, </s>
    assert score.token_count == 3
    assert math.isclose(score.total_logprob, expected, rel_tol=0, abs_tol=1e-12)


def test_unknown_words_score_like_the_unknown_token():
    model = _model_abba()
    assert model.logprob(("zzz",)).total_logprob == model.logprob((UNK,)).total_logprob


def test_reserved_surface_forms_are_masked_in_data():
    model = NGramModel.train(
        [("a", BOS, "b"), ("a", EOS, "b"), ("a", "c", "b")], order=2, min_count=1
    )
    # the reserved spellings never become ordinary vocabulary entries
    assert model.id_to_token == (UNK, BOS, EOS, "a", "b", "c")
    masked = model.logprob(("a", BOS, "b"))
    assert masked == model.logprob(("a", EOS, "b"))
    assert masked == model.logprob(("a", UNK, "b"))
    assert masked == model.logprob(("a", "never-seen", "b"))


def test_rarer_cutoff_never_hurts_training_fit():
    corpus = (
        [("k1", "a", "x")] * 2
        + [("k2", "b", "y")] * 2
        + [("k1", "z", "x")] * 2
        + [("k2", "z", "y")] * 2
    )
    for order in (2, 3):
        ppls = [
            perplexity(NGramModel.train(corpus, order=order, min_count=mc), corpus)
            for mc in (3, 2, 1)
        ]
        assert ppls[0] >= ppls[1] - 1e-12
        assert ppls[1] >= ppls[2] - 1e-12


def test_empty_corpus_rejected():
    with pytest.raises(DataError, match="^cannot train on an empty corpus$"):
        NGramModel.train([], order=2, min_count=1)
    with pytest.raises(DataError, match="^cannot compute perplexity over an empty corpus$"):
        perplexity(_model_aab(), [])


def test_degenerate_vocabulary_rejected():
    message = r"^only 1 token type\(s\) remain after masking \(min_count={}\); need at least 2$"
    with pytest.raises(DataError, match=message.format(1)):
        NGramModel.train([("a", "a", "a")], order=1, min_count=1)
    # masking everything leaves <unk> as the lone effective type: still fails
    with pytest.raises(DataError, match=message.format(5)):
        NGramModel.train([("a", "a", "a")], order=1, min_count=5)
    # one surviving type plus masked material is two effective types: trains
    NGramModel.train([("a", "a", "b")], order=1, min_count=2)


def test_order_and_cutoff_bounds_enforced():
    for bad in (0, 7):
        with pytest.raises(ValueError):
            NGramModel.train([("a", "b")], order=bad, min_count=1)
    with pytest.raises(ValueError):
        NGramModel.train([("a", "b")], order=2, min_count=0)


def test_discount_fallback_when_counts_are_one_sided():
    # {"a b", "b a"}: every bigram count is 1, so n2 = 0 at the top order and
    # the discount falls back to 0.75
    assert _model_abba().discounts[1] == 0.75
    # {"a a b"} unigrams: n1 = 2, n2 = 1 -> D = 2/(2+2) = 0.5
    assert _model_aab().discounts[0] == 0.5


def test_save_load_round_trip_is_bit_identical(tmp_path):
    model = NGramModel.train(
        [("a", "b", "c"), ("c", "b", "a"), ("a", "c"), ("b",)], order=3, min_count=1
    )
    path = tmp_path / "m.lm"
    model.save(str(path))
    raw = path.read_bytes()
    loaded = NGramModel.load(str(path))
    path2 = tmp_path / "m2.lm"
    loaded.save(str(path2))
    assert path2.read_bytes() == raw

    assert loaded.order == model.order
    assert loaded.id_to_token == model.id_to_token
    assert loaded.train_token_count == model.train_token_count == 9
    assert loaded.discounts == model.discounts

    rng = random.Random(7)
    words = ["a", "b", "c", "zzz"]
    for _ in range(100):
        sent = tuple(rng.choice(words) for _ in range(rng.randint(1, 6)))
        assert loaded.logprob(sent) == model.logprob(sent)


def test_retraining_is_deterministic(tmp_path):
    corpus = [("a", "b", "c"), ("c", "b", "a"), ("a", "c")]
    p1, p2 = tmp_path / "one.lm", tmp_path / "two.lm"
    NGramModel.train(corpus, order=2, min_count=1).save(str(p1))
    NGramModel.train(corpus, order=2, min_count=1).save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture
def trained_bytes(tmp_path):
    path = tmp_path / "valid.lm"
    _model_abba().save(str(path))
    return path.read_bytes()


def test_load_rejects_bad_magic(tmp_path, trained_bytes):
    raw = bytearray(trained_bytes)
    raw[:4] = b"XGLM"
    path = tmp_path / "bad.lm"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        NGramModel.load(str(path))


def _assert_perplexity_refuses(tmp_path, capsys, model, problem):
    """`covbias perplexity` with this model exits 2, writes no output and names the problem."""
    text, out = tmp_path / "in.txt", tmp_path / "ppl.tsv"
    text.write_text("a\n", encoding="utf-8")
    argv = ["perplexity", "--model", str(model), "--input", str(text), "--output", str(out)]
    assert cli_main(argv) == 2
    assert not out.exists()
    assert f"{model}: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, MODEL_FORMAT_VERSION + 1])
def test_load_rejects_other_format_versions(tmp_path, capsys, trained_bytes, version):
    """Only the current format loads: a version-1 model must be retrained."""
    raw = bytearray(trained_bytes)
    raw[4:6] = struct.pack("<H", version)
    path = tmp_path / "other.lm"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        NGramModel.load(str(path))
    problem = f"format version {version} not supported (this build reads version 2)"
    assert str(err.value) == f"{path}: {problem}"
    _assert_perplexity_refuses(tmp_path, capsys, path, problem)


def test_load_rejects_truncation_and_trailing_bytes(tmp_path, trained_bytes):
    short = tmp_path / "short.lm"
    short.write_bytes(trained_bytes[:-3])
    with pytest.raises(FormatError):
        NGramModel.load(str(short))
    long = tmp_path / "long.lm"
    long.write_bytes(trained_bytes + b"\x00")
    with pytest.raises(FormatError):
        NGramModel.load(str(long))


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.lm"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        NGramModel.load(str(path))


_word = st.sampled_from(["a", "b", "c", "d", "e"])
_sent = st.lists(_word, min_size=1, max_size=6).map(tuple)


@settings(max_examples=25, deadline=None)
@given(
    corpus=st.lists(_sent, min_size=2, max_size=12),
    order=st.integers(min_value=1, max_value=4),
)
def test_trained_models_score_finitely_and_round_trip(tmp_path_factory, corpus, order):
    try:
        model = NGramModel.train(corpus, order=order, min_count=1)
    except DataError as exc:
        if "token type(s) remain after masking" not in str(exc):
            raise
        return
    path = tmp_path_factory.mktemp("hm") / "m.lm"
    model.save(str(path))
    loaded = NGramModel.load(str(path))
    for sent in corpus:
        got = model.logprob(sent)
        assert math.isfinite(got.total_logprob) and got.total_logprob < 0
        assert got.token_count == len(sent) + 1
        assert loaded.logprob(sent) == got


# -- the model-file boundary ---------------------------------------------------


_HALF = math.log(0.5)
_THIRD = math.log(1 / 3)
_VOCAB = (UNK, BOS, EOS, "a")
_UNIGRAMS = {(0,): _THIRD, (2,): _THIRD, (3,): _THIRD}
_LOGPROBS = {**_UNIGRAMS, (3, 2): _HALF}
_BACKOFFS = {(3,): -0.5}


def test_hand_encoded_model_loads(tmp_path):
    path = tmp_path / "ok.lm"
    path.write_bytes(model_bytes(2, _VOCAB, _LOGPROBS, _BACKOFFS))
    model = NGramModel.load(str(path))
    assert model.logprobs[(3, 2)] == _HALF
    assert dict(model.backoffs) == {(3,): -0.5}
    assert model.logprob(("a",)).total_logprob == _THIRD + _HALF


# model_bytes arguments of files that load refuses
_REJECTED = {
    "nan backoff": (2, _VOCAB, _LOGPROBS, {(3,): math.nan}),
    "inf backoff": (2, _VOCAB, _LOGPROBS, {(3,): math.inf}),
    "-inf backoff": (2, _VOCAB, _LOGPROBS, {(3,): -math.inf}),
    "nan logprob": (2, _VOCAB, {**_LOGPROBS, (3, 2): math.nan}, _BACKOFFS),
    "inf logprob": (2, _VOCAB, {**_LOGPROBS, (3, 2): math.inf}, _BACKOFFS),
    "positive logprob": (2, _VOCAB, {**_LOGPROBS, (3, 2): 0.25}, _BACKOFFS),
    "id beyond vocabulary": (2, _VOCAB, {**_UNIGRAMS, (3, 4): _HALF}, _BACKOFFS),
    "missing unigram": (2, _VOCAB, {(0,): _THIRD, (2,): _THIRD, (3, 2): _HALF}),
    "mass on <s>": (2, _VOCAB, {**_LOGPROBS, (1,): _THIRD}, _BACKOFFS),
    "order 0": (0, _VOCAB, {}),
    "order 7": (7, _VOCAB, _UNIGRAMS, _BACKOFFS),
    "reserved symbols missing": (1, (UNK, EOS, BOS, "a"), _UNIGRAMS),
    "reserved symbols out of place": (1, (UNK, BOS, "a", EOS), _UNIGRAMS),
    "duplicate token": (1, _VOCAB + ("a",), {**_UNIGRAMS, (4,): _THIRD}),
    "repeated token": (1, _VOCAB + (EOS,), {**_UNIGRAMS, (4,): _THIRD}),
    "token not UTF-8": (1, (UNK, BOS, EOS, b"\xff\xfe"), _UNIGRAMS),
}


# The problem each case is refused with, after the file name. A key names the
# ids its base-V digits spell, so (3, 4) with V = 4 is read as (4, 0).
_PROBLEMS = {
    "nan backoff": "order-1 contexts (3,): backoff weight nan is not finite",
    "inf backoff": "order-1 contexts (3,): backoff weight inf is not finite",
    "-inf backoff": "order-1 contexts (3,): backoff weight -inf is not finite",
    "nan logprob": "order-2 events (3, 2): log-probability nan is not finite and <= 0",
    "inf logprob": "order-2 events (3, 2): log-probability inf is not finite and <= 0",
    "positive logprob": "order-2 events (3, 2): log-probability 0.25 is not finite and <= 0",
    "id beyond vocabulary": "order-2 events table, row 1 (4, 0): token id out of range",
    "missing unigram": "missing unigram entry for token id 3",
    "mass on <s>": "<s> must not carry probability mass",
    "order 0": "order must be in 1..6, got 0",
    "order 7": "order must be in 1..6, got 7",
    "reserved symbols missing": "vocabulary must start with ('<unk>', '<s>', '</s>')",
    "duplicate token": "duplicate token in vocabulary",
    "token not UTF-8": "token 3 is not valid UTF-8",
    "reserved symbols out of place": "vocabulary must start with ('<unk>', '<s>', '</s>')",
    "repeated token": "duplicate token in vocabulary",
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_load_rejects_invalid_models(tmp_path, case):
    path = tmp_path / "bad.lm"
    path.write_bytes(model_bytes(*_REJECTED[case]))
    with pytest.raises(FormatError) as err:
        NGramModel.load(str(path))
    assert str(err.value) == f"{path}: {_PROBLEMS[case]}"


_TABLE_FAULTS = [
    "nan backoff", "inf backoff", "-inf backoff", "nan logprob", "inf logprob",
    "positive logprob", "id beyond vocabulary", "missing unigram", "mass on <s>",
]


@pytest.mark.parametrize("case", sorted(_TABLE_FAULTS))
def test_constructor_and_both_formats_reject_the_same_faults(tmp_path, capsys, case):
    """One definition of a valid model: load and a CLI model option refuse a table fault alike.

    The id is kept from the tuple-table constructor, which refused these
    faults too; every model now enters through train or load.
    """
    path = tmp_path / "m.lm"
    path.write_bytes(model_bytes(*_REJECTED[case]))
    with pytest.raises(FormatError) as loaded:
        NGramModel.load(str(path))
    assert str(loaded.value) == f"{path}: {_PROBLEMS[case]}"
    (tmp_path / "in.txt").write_text("a\n", encoding="utf-8")
    argv = ["perplexity", "--model", str(path), "--input", str(tmp_path / "in.txt")]
    assert cli_main(argv) == 2
    assert capsys.readouterr() == ("", f"covbias: error: {loaded.value}\n")


def test_format_2_encoder_matches_save(tmp_path):
    """model_bytes writes what save writes, for hand-made tables and for a trained model."""
    meta = dict(train_token_count=7, discounts=(0.5, 0.25))
    build_model(2, _VOCAB, _LOGPROBS, _BACKOFFS, **meta).save(str(tmp_path / "m.lm"))
    assert (tmp_path / "m.lm").read_bytes() == model_bytes(2, _VOCAB, _LOGPROBS, _BACKOFFS, **meta)
    model = _fuzz_model()
    assert _saved_bytes(model) == model_bytes(**_model_args(model))


def test_values_whose_sum_overflows_still_load(tmp_path):
    """The value checks sum a column first; a sum that overflows to -inf is not a fault."""
    logprobs = {(0,): -1e308, (2,): -1e308, (3,): _THIRD, (3, 2): _HALF}
    model = build_model(2, _VOCAB, logprobs, {(0,): -1e308, (3,): -1e308})
    assert math.isinf(sum(model.logprobs.values())) and math.isinf(sum(model.backoffs.values()))
    path = tmp_path / "m.lm"
    model.save(str(path))
    assert NGramModel.load(str(path)).logprobs == model.logprobs


def test_load_checks_the_vocabulary_before_the_tables(tmp_path):
    """An empty vocabulary is refused before an order-2 row is decoded with V = 0."""
    path = tmp_path / "m.lm"
    path.write_bytes(model_bytes(2, (), {(0, 0): _HALF}))
    with pytest.raises(FormatError) as err:
        NGramModel.load(str(path))
    assert str(err.value) == f"{path}: vocabulary must start with {(UNK, BOS, EOS)}"


@pytest.mark.parametrize(
    "discounts, text",
    [
        ((math.nan, 0.5), "(nan, 0.5)"),
        ((0.5, math.inf), "(0.5, inf)"),
        ((-math.inf, 0.5), "(-inf, 0.5)"),
    ],
    ids=["nan", "inf", "-inf"],
)
def test_load_rejects_non_finite_discounts(tmp_path, discounts, text):
    path = tmp_path / "m.lm"
    path.write_bytes(model_bytes(2, _VOCAB, _LOGPROBS, _BACKOFFS, discounts=discounts))
    with pytest.raises(FormatError) as err:
        NGramModel.load(str(path))
    assert str(err.value) == f"{path}: discounts {text} are not 2 finite values"


def _saved_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.lm")
        model.save(path)
        with open(path, "rb") as handle:
            return handle.read()


def test_v2_load_rejects_repeated_or_out_of_order_keys(tmp_path):
    raw = _saved_bytes(_model_abba())
    _, _, tables = _v2_layout(raw)
    _, width, pos, n = tables[0]  # order-1 events
    assert (width, struct.unpack_from(f"<{n}Q", raw, pos)) == (8, (0, 2, 3, 4))
    path = tmp_path / "keys.lm"
    for keys in [(0, 3, 2, 4), (0, 2, 2, 4)]:
        bad = bytearray(raw)
        struct.pack_into(f"<{n}Q", bad, pos, *keys)
        path.write_bytes(bytes(bad))
        with pytest.raises(FormatError) as err:
            NGramModel.load(str(path))
        assert str(err.value) == (
            f"{path}: order-1 events table, row 3 (2,): not after the row before it"
        )


# order-1 event keys that repeat or go back, in place of the saved (0, 2, 3, 4)
_UNORDERED = {
    "out of order": ((0, 3, 2, 4), "row 3 (2,)"),
    "repeated": ((0, 2, 3, 3), "row 4 (3,)"),
}


@pytest.mark.parametrize("case", sorted(_UNORDERED))
def test_load_rejects_repeated_or_out_of_order_rows(tmp_path, capsys, case):
    keys, where = _UNORDERED[case]
    raw = bytearray(_saved_bytes(_model_abba()))
    _, _, tables = _v2_layout(raw)
    _, _, pos, n = tables[0]  # order-1 events
    struct.pack_into(f"<{n}Q", raw, pos, *keys)
    path = tmp_path / "rows.lm"
    path.write_bytes(bytes(raw))
    problem = f"order-1 events table, {where}: not after the row before it"
    with pytest.raises(FormatError) as err:
        NGramModel.load(str(path))
    assert str(err.value) == f"{path}: {problem}"
    _assert_perplexity_refuses(tmp_path, capsys, path, problem)


def test_training_metadata_round_trips_in_format_2_only(tmp_path):
    model = _model_abba()
    assert (model.train_token_count, model.discounts) == (4, (0.75, 0.75))
    loaded = _assert_round_trips(model, tmp_path)
    assert (loaded.train_token_count, loaded.discounts) == (4, (0.75, 0.75))
    # a model built without metadata saves and loads without it
    bare = build_model(1, _VOCAB, _UNIGRAMS)
    assert _assert_round_trips(bare, tmp_path).discounts is None


@pytest.mark.parametrize(
    "flags, problem",
    [
        (7, "unknown metadata flags 7"),
        (2, "token count set but flagged absent"),
        (1, "discounts set but flagged absent"),
    ],
    ids=["unknown flag", "count flagged absent", "discounts flagged absent"],
)
def test_load_rejects_metadata_flagged_absent(tmp_path, trained_bytes, flags, problem):
    _, meta, _ = _v2_layout(trained_bytes)
    assert trained_bytes[meta] == 3  # a trained model has both its token count and discounts
    raw = bytearray(trained_bytes)
    raw[meta] = flags
    path = tmp_path / "meta.lm"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        NGramModel.load(str(path))
    assert str(err.value) == f"{path}: {problem}"


def _fuzz_model():
    return NGramModel.train(
        [("a", "b", "c"), ("c", "b", "a"), ("a", "c"), ("b",)], order=3, min_count=1
    )


def _v2_layout(raw):
    """Offsets in a format-2 file: its u32 count fields, its metadata and its tables.

    Each table is (V**k, key width, offset of its key column, rows).
    """
    (order,) = struct.unpack_from("<H", raw, 6)
    (vocab_size,) = struct.unpack_from("<I", raw, 8)
    fields, pos = [8], 12
    for _ in range(vocab_size):
        fields.append(pos)
        pos += 4 + struct.unpack_from("<I", raw, pos)[0]
    meta, pos = pos, pos + 9 + 8 * order
    tables = []
    for k in range(1, order + 1):
        for _ in range(2 if k < order else 1):  # events, then contexts below the top order
            fields.append(pos)
            (n,) = struct.unpack_from("<I", raw, pos)
            span = vocab_size**k
            width = 8 if span <= 2**64 else ((span - 1).bit_length() + 7) // 8
            tables.append((span, width, pos + 4, n))
            pos += 4 + n * (width + 8)
    assert pos == len(raw)
    return fields, meta, tables


def _wide6_model():
    """An order-6 model whose 6-gram keys need more than 64 bits (V = 1,626)."""
    tokens = (UNK, BOS, EOS) + tuple(f"w{i}" for i in range(3, 1_626))
    top = len(tokens) - 1
    unigram = math.log(1 / (len(tokens) - 1))
    logprobs = {(i,): unigram for i in range(len(tokens)) if i != BOS_ID}
    backoffs = {}
    gram = (top, top - 1, 3, top, 4, top - 2)
    for k in range(2, 7):
        logprobs[gram[:k]] = _HALF
        backoffs[gram[: k - 1]] = -0.25
    return build_model(6, tokens, logprobs, backoffs, train_token_count=12, discounts=(0.5,) * 6)


_V2_BASES = [
    (raw, _v2_layout(raw))
    for raw in map(_saved_bytes, [_model_abba(), _fuzz_model(), _wide6_model()])
]


def _key_slice(table, row):
    _, width, pos, _ = table
    return slice(pos + row * width, pos + (row + 1) * width), "little" if width == 8 else "big"


def _key_at(raw, table, row):
    where, byteorder = _key_slice(table, row)
    return int.from_bytes(raw[where], byteorder)


def _put_key(raw, table, row, key):
    where, byteorder = _key_slice(table, row)
    raw[where] = key.to_bytes(where.stop - where.start, byteorder)


@st.composite
def _mutated_v2_bytes(draw):
    base, (fields, meta, tables) = draw(st.sampled_from(_V2_BASES))
    raw = bytearray(base)
    how = draw(st.sampled_from(["cut", "flip", "count", "metadata", "key", "value"]))
    if how == "cut":
        return base[: draw(st.integers(0, len(base) - 1))]
    if how == "flip":
        for _ in range(draw(st.integers(1, 4))):
            raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
    elif how == "count":
        value = draw(st.one_of(st.integers(0, 0xFFFFFFFF), st.sampled_from([0, 1, 0xFFFFFFFF])))
        struct.pack_into("<I", raw, draw(st.sampled_from(fields)), value)
    elif how == "metadata":  # flags, token count, or one discount
        offset = draw(st.sampled_from([meta, meta + 1, meta + 9]))
        size = {meta: 1, meta + 1: 8}.get(offset, 8)
        raw[offset : offset + size] = draw(st.binary(min_size=size, max_size=size))
    else:
        table = draw(st.sampled_from([t for t in tables if t[3] > 1]))
        span, width, pos, n = table
        row = draw(st.integers(0, n - 2))
        if how == "key":
            kind = draw(st.sampled_from(["at or above V**k", "repeat", "swap", "any"]))
            if kind == "at or above V**k":  # on the last row, so the keys stay in order
                _put_key(raw, table, n - 1, draw(st.integers(span, 2 ** (8 * width) - 1)))
            elif kind == "repeat":
                _put_key(raw, table, row + 1, _key_at(raw, table, row))
            elif kind == "swap":
                low, high = _key_at(raw, table, row), _key_at(raw, table, row + 1)
                _put_key(raw, table, row, high)
                _put_key(raw, table, row + 1, low)
            else:
                _put_key(raw, table, row, draw(st.integers(0, 2 ** (8 * width) - 1)))
        else:
            special = st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -0.0, -1e308])
            value = draw(st.one_of(special, st.floats()))
            struct.pack_into("<d", raw, pos + n * width + 8 * row, value)
    return bytes(raw)


@settings(max_examples=400, deadline=1000, derandomize=True)
@given(raw=_mutated_v2_bytes())
def test_mutated_v2_model_files_load_or_raise_format_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz2") / "m.lm"
    path.write_bytes(raw)
    try:
        model = NGramModel.load(str(path))
    except FormatError:
        return
    for sent in [("a", "b", "c"), ("c", "zzz"), (), ("w1625", "w1624", "w3")]:
        assert not math.isnan(model.logprob(sent).total_logprob)
    # a file that loads is the one its model saves
    model.save(str(path))
    assert path.read_bytes() == raw


_corpora = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", UNK, BOS]), min_size=1, max_size=7).map(
        tuple
    ),
    min_size=1,
    max_size=15,
)


def _train_or_none(corpus, order, min_count):
    try:
        return NGramModel.train(corpus, order=order, min_count=min_count)
    except DataError as exc:
        if "token type(s) remain after masking" not in str(exc):
            raise
        return None


@settings(max_examples=40, deadline=None)
@given(corpus=_corpora, order=st.integers(1, 5), min_count=st.integers(1, 3))
def test_trained_tables_pass_the_public_validation(corpus, order, min_count):
    model = _train_or_none(corpus, order, min_count)
    if model is None:
        return
    checked = build_model(**_model_args(model))
    assert checked.logprobs == model.logprobs and checked.backoffs == model.backoffs


def _model_args(model):
    """The keyword arguments of model_bytes that write this model's file."""
    return dict(
        order=model.order,
        tokens=model.id_to_token,
        logprobs=model.logprobs,
        backoffs=model.backoffs,
        train_token_count=model.train_token_count,
        discounts=model.discounts,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(corpus=_corpora, order=st.integers(1, 6), min_count=st.integers(1, 3))
def test_train_matches_the_tuple_estimator_bit_for_bit(corpus, order, min_count):
    model = _train_or_none(corpus, order, min_count)
    if model is not None:
        _assert_matches_tuple_train(model, corpus, min_count)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("min_count", [1, 2])
def test_train_matches_the_tuple_estimator_on_long_context_runs(order, min_count):
    # hundreds of ids and contexts followed by dozens of words, which the
    # 7-token hypothesis corpora never reach
    corpus = make_testbed(seed=5, n_mono=1_000, n_heldout=0, n_pairs_each=0).src_mono
    model = NGramModel.train(corpus, order=order, min_count=min_count)
    runs = Counter(gram[:-1] for gram in model.logprobs if len(gram) == order)
    assert len(model.id_to_token) > 300 and max(runs.values()) > 50
    _assert_matches_tuple_train(model, corpus, min_count)


def _assert_matches_tuple_train(model, corpus, min_count):
    expected = tuple_train(corpus, model.order, min_count)
    tokens, logprobs, backoffs, discounts, token_count = expected
    assert model.id_to_token == tokens
    assert (model.discounts, model.train_token_count) == (discounts, token_count)
    assert _bits(model.logprobs) == _bits(logprobs)
    assert _bits(model.backoffs) == _bits(backoffs)


def _bits(table):
    return {gram: struct.pack("<d", value) for gram, value in table.items()}


@settings(max_examples=40, deadline=None)
@given(corpus=_corpora, order=st.integers(1, 6), min_count=st.integers(1, 3))
def test_save_load_save_is_byte_identical(tmp_path_factory, corpus, order, min_count):
    model = _train_or_none(corpus, order, min_count)
    if model is None:
        return
    _assert_round_trips(model, tmp_path_factory.mktemp("rt"))


def test_score_pairs_exits_2_on_a_nan_backoff_model(tmp_path, capsys):
    good, bad = tmp_path / "good.lm", tmp_path / "nan.lm"
    good.write_bytes(model_bytes(2, _VOCAB, _LOGPROBS, _BACKOFFS))
    bad.write_bytes(model_bytes(*_REJECTED["nan backoff"]))
    (tmp_path / "p.src").write_text("a a\n", encoding="utf-8")
    (tmp_path / "p.tgt").write_text("a\n", encoding="utf-8")
    argv = [
        "score-pairs",
        "--source",
        str(tmp_path / "p.src"),
        "--target",
        str(tmp_path / "p.tgt"),
    ]
    assert cli_main(argv + ["--source-model", str(good), "--target-model", str(good)]) == 0
    capsys.readouterr()
    assert cli_main(argv + ["--source-model", str(good), "--target-model", str(bad)]) == 2
    assert "nan.lm" in capsys.readouterr().err


# -- the packed tables against the tuple-keyed oracle -------------------------


def _oracle_args(model):
    return model.order, model.token_ids, dict(model.logprobs), dict(model.backoffs)


def _bits_of(value):
    return struct.pack("<d", value)


_probe_tokens = st.sampled_from(["a", "b", "c", "d", "e", "zzz", UNK, BOS, EOS])


@settings(max_examples=60, deadline=None)
@given(
    corpus=_corpora,
    order=st.integers(1, 6),
    min_count=st.integers(1, 2),
    probes=st.lists(st.lists(_probe_tokens, max_size=9).map(tuple), min_size=1, max_size=8),
)
def test_scoring_matches_the_tuple_oracle_bit_for_bit(corpus, order, min_count, probes):
    model = _train_or_none(corpus, order, min_count)
    if model is None:
        return
    args = _oracle_args(model)
    for sent in probes + corpus:
        got = model.logprob(sent)
        total, events = tuple_sentence_logprob(*args, sent)
        assert (_bits_of(got.total_logprob), got.token_count) == (_bits_of(total), events)
    for probe in probes:
        for cut in range(len(probe)):
            context, word = probe[:cut], probe[cut]
            expected = tuple_word_logprob(*args, context, word)
            assert _bits_of(model.logprob_word(context, word)) == _bits_of(expected)


@functools.cache
def _wide_model_bytes():
    """Two model files whose top key column is wider than u64: order 6 and order 4."""
    return _saved_bytes(_wide6_model()), model_bytes(*_WIDE_MODEL)


# tokens of the n-grams of _wide6_model and of _WIDE_MODEL
_wide_probe_tokens = st.sampled_from(
    ["w1625", "w1624", "w3", "w4", "w1623", "w65536", f"w{70_002}", "w65537"]
)


def _on_path(model, path, switch_after):
    """Make model.logprob look up by bisection only, by the dict index only, or switch."""
    if path == "bisect":
        model._unindexed = math.inf
    elif path == "index":
        model._index()
    else:  # build the index once switch_after events are scored
        model._unindexed = switch_after


def _indexed(model):
    return isinstance(model._lp[1], dict)


@pytest.mark.parametrize("path", ["bisect", "index", "switch"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    corpus=_corpora,
    order=st.integers(1, 6),
    min_count=st.integers(1, 2),
    wide=st.sampled_from([None, None, None, 0, 1]),
    probes=st.lists(
        st.lists(st.one_of(_probe_tokens, _wide_probe_tokens), max_size=9).map(tuple),
        min_size=1,
        max_size=8,
    ),
    switch_after=st.integers(1, 80),
)
def test_every_lookup_path_matches_the_tuple_oracle_bit_for_bit(
    tmp_path_factory, path, corpus, order, min_count, wide, probes, switch_after
):
    """Bisection over the columns, the dict index and a switch between sentences score alike."""
    if wide is None:
        model = _train_or_none(corpus, order, min_count)
        if model is None:
            return
    else:
        file = tmp_path_factory.mktemp("wide") / "m.lm"
        file.write_bytes(_wide_model_bytes()[wide])
        model = NGramModel.load(str(file))
    args = _oracle_args(model)
    _on_path(model, path, switch_after)
    scored = 0
    for sent in probes + corpus:
        assert _indexed(model) == (path == "index" or path == "switch" and scored >= switch_after)
        got = model.logprob(sent)
        scored += got.token_count
        total, events = tuple_sentence_logprob(*args, sent)
        assert (_bits_of(got.total_logprob), got.token_count) == (_bits_of(total), events)
    for probe in probes:
        for cut in range(len(probe)):
            context, word = probe[:cut], probe[cut]
            expected = tuple_word_logprob(*args, context, word)
            assert _bits_of(model.logprob_word(context, word)) == _bits_of(expected)


def test_scoring_builds_the_index_after_one_event_per_12_rows():
    model = _fuzz_model()
    rows = sum(map(len, model._lp + model._bo))
    assert rows // 12 == 3  # so the index comes with the sentence that reaches 3 events
    model.logprob(("a",))  # two events, a and </s>
    assert not _indexed(model)
    model.logprob(())
    assert _indexed(model)
    assert _bits(model.logprobs) == _bits(_fuzz_model().logprobs)


def test_the_index_keeps_signed_zero_weights_and_contexts_without_events():
    """Interning equal weights would give -0.0 the object of 0.0; (<s>, <s>) is no event."""
    vocab = (UNK, BOS, EOS, "a", "b")
    logprobs = {(0,): -1.5, (2,): -1.5, (3,): -1.0, (4,): -1.0, (1, 3): _HALF, (3, 4): _HALF}
    logprobs[(1, 1, 3)] = _HALF
    backoffs = {(1,): -0.5, (3,): 0.0, (4,): -0.0, (1, 1): -0.25, (1, 3): -0.25, (3, 4): -0.25}
    model = build_model(3, vocab, logprobs, backoffs)
    saved, weights = _saved_bytes(model), _bits(model.backoffs)
    model._index()
    assert _saved_bytes(model) == saved
    assert _bits(model.backoffs) == weights
    start = BOS_ID * len(vocab) + BOS_ID  # the key of (<s>, <s>)
    assert start in model._bo[2] and start not in model._lp[2]
    assert len({id(w) for w in model._bo[2].values()}) == 1  # no zero: one -0.25 object


def test_the_index_shares_context_keys_and_equal_weights():
    """A context's key is its event's key object, and a table's equal weights are one object."""
    bed = make_testbed(seed=7, n_mono=800, n_heldout=0, n_pairs_each=0)
    model = NGramModel.train(bed.src_mono, order=4)
    model._index()
    shared = interned = 0
    for k in range(1, model.order):
        events = {key: key for key in model._lp[k]}  # each key to the dict's own object
        contexts = model._bo[k]
        assert all(events[key] is key for key in contexts if key in events)
        assert sum(key not in events for key in contexts) == 1  # the all-<s> context
        shared += len(contexts) - 1
        weights = {}
        assert all(weights.setdefault(w, w) is w for w in contexts.values())
        interned += len(contexts) - len(weights)
    assert shared > 1_000 and interned > 1_000


# ids above 65,535 need more than 16 bits, and with V = 70,003 the order-4
# keys need more than 64 bits (V**4 > 2**64), so that key column is 9 bytes wide
_WIDE_VOCAB = (UNK, BOS, EOS) + tuple(f"w{i}" for i in range(3, 70_003))
_WIDE = len(_WIDE_VOCAB) - 1  # the largest id, 70,002
_WIDE_UNIGRAM = math.log(1 / (len(_WIDE_VOCAB) - 1))
_WIDE_MODEL = (
    4,
    _WIDE_VOCAB,
    {
        **{(i,): _WIDE_UNIGRAM for i in range(len(_WIDE_VOCAB)) if i != BOS_ID},
        (65_536, _WIDE): _HALF,
        (_WIDE, 65_536): _THIRD,
        (_WIDE, 65_537): _HALF,
        (65_536, _WIDE, 2): math.log(0.75),
        (65_536, _WIDE, 65_537): _HALF,
        (65_536, _WIDE, 65_537, _WIDE): _THIRD,
    },
    {(65_536,): -0.25, (_WIDE,): -0.25, (65_536, _WIDE): -0.125, (65_536, _WIDE, 65_537): -0.0625},
)


def test_ids_wider_than_16_bits_load_score_and_save(tmp_path):
    assert len(_WIDE_VOCAB) ** 3 <= 2**64 < len(_WIDE_VOCAB) ** 4
    raw = model_bytes(*_WIDE_MODEL)
    _, _, tables = _v2_layout(raw)
    assert [width for _, width, _, _ in tables] == [8] * 6 + [9]  # order-4 keys: 9 bytes
    path = tmp_path / "wide.lm"
    path.write_bytes(raw)
    model = NGramModel.load(str(path))
    assert model.logprobs[(_WIDE, 65_536)] == _THIRD
    assert model.backoffs[(65_536, _WIDE)] == -0.125
    args = _oracle_args(model)
    high = ["w65536", f"w{_WIDE}", "w65537", "zzz"]
    rng = random.Random(3)
    for _ in range(200):
        sent = tuple(rng.choice(high) for _ in range(rng.randint(0, 6)))
        got = model.logprob(sent)
        assert (got.total_logprob, got.token_count) == tuple_sentence_logprob(*args, sent)
        context, word = sent[:-1], sent[-1] if sent else EOS
        assert model.logprob_word(context, word) == tuple_word_logprob(*args, context, word)
    # a unigram after three <s>, then the seen bigram and the seen trigram
    assert model.logprob(("w65536", f"w{_WIDE}")).total_logprob == (
        _WIDE_UNIGRAM + _HALF + math.log(0.75)
    )
    assert model.logprob_word(("w65536", f"w{_WIDE}", "w65537"), f"w{_WIDE}") == _THIRD
    model.save(str(path))
    assert path.read_bytes() == raw


def _assert_round_trips(model, root):
    """save -> load gives the same tables, metadata and scores; a second save the same bytes.

    The bytes are the same again once the model and the loaded copy have
    traded their columns for the dict index.
    """
    model.save(str(root / "one.lm"))
    loaded = NGramModel.load(str(root / "one.lm"))
    loaded.save(str(root / "two.lm"))
    assert (root / "one.lm").read_bytes() == (root / "two.lm").read_bytes()
    for indexed in (model, loaded):
        indexed._index()
        indexed.save(str(root / "two.lm"))
        assert (root / "one.lm").read_bytes() == (root / "two.lm").read_bytes()
    assert (loaded.order, loaded.id_to_token) == (model.order, model.id_to_token)
    assert loaded.train_token_count == model.train_token_count
    assert loaded.discounts == model.discounts
    assert _bits(loaded.logprobs) == _bits(model.logprobs)
    assert _bits(loaded.backoffs) == _bits(model.backoffs)
    return loaded


def test_order_6_keys_wider_than_64_bits_train_score_and_save(tmp_path):
    rng = random.Random(11)
    words = [f"t{i}" for i in range(1_700)]
    corpus = []
    for _ in range(2):
        rng.shuffle(words)
        corpus += [tuple(words[i : i + 10]) for i in range(0, len(words), 10)]
    corpus += corpus[:40]  # repeated n-grams, so higher orders see counts above 1
    model = NGramModel.train(corpus, order=6, min_count=1)
    vocab_size = len(model.id_to_token)
    assert vocab_size**5 <= 2**64 < vocab_size**6
    assert isinstance(model._lp[6].keys(), list)  # 9-byte keys, held as ints
    _assert_matches_tuple_train(model, corpus, 1)
    loaded = _assert_round_trips(model, tmp_path)
    args = _oracle_args(model)
    probes = corpus[::7] + [tuple(rng.choice(words) for _ in range(8)) for _ in range(30)]
    for sent in probes:
        got = loaded.logprob(sent)
        total, events = tuple_sentence_logprob(*args, sent)
        assert (_bits_of(got.total_logprob), got.token_count) == (_bits_of(total), events)
        expected = tuple_word_logprob(*args, sent[:-1], sent[-1])
        assert _bits_of(loaded.logprob_word(sent[:-1], sent[-1])) == _bits_of(expected)


def _wide6_rows():
    """An order-6 model whose 6-gram key column is 9 bytes wide (V = 1,626), with 3 such rows."""
    tokens = (UNK, BOS, EOS) + tuple(f"w{i}" for i in range(3, 1_626))
    logprobs = {(i,): math.log(1 / 1_625) for i in range(len(tokens)) if i != BOS_ID}
    logprobs[5, 4, 3, 1_625, 7, 2] = _HALF
    logprobs[1_624, 3, 9, 9, 1_625, 4] = _THIRD
    logprobs[1_625, 1_625, 3, 1_624, 4, 1_623] = _HALF
    return model_bytes(6, tokens, logprobs)


# (file bytes, index of the table to corrupt in _v2_layout's list): the
# order-2 events of a trained order-3 model (u64 keys) and the order-6 events
# of _wide6_rows (9-byte big-endian keys); each has 3 or more rows.
_FAULT_TABLES = {"u64": (_saved_bytes(_fuzz_model()), 2), "wide": (_wide6_rows(), 10)}


def _swap_rows(raw, table):
    low, high = _key_at(raw, table, 1), _key_at(raw, table, 2)
    _put_key(raw, table, 1, high)
    _put_key(raw, table, 2, low)


def _set_value(value):
    def put(raw, table):
        _, width, pos, n = table
        struct.pack_into("<d", raw, pos + n * width + 8, value)  # row 2's value

    return put


_LOAD_FAULTS = {
    "out of order": _swap_rows,
    "repeated key": lambda raw, table: _put_key(raw, table, 2, _key_at(raw, table, 1)),
    "id out of range": lambda raw, table: _put_key(raw, table, table[3] - 1, table[0]),
    "nan value": _set_value(math.nan),
    "inf value": _set_value(math.inf),
    "-inf value": _set_value(-math.inf),
}

# The text of each fault: the row is 1-based and the n-gram is what the key's
# base-V digits spell.
_LOAD_FAULT_TEXT = {
    ("u64", "out of order"): "order-2 events table, row 3 (1, 4): not after the row before it",
    ("u64", "repeated key"): "order-2 events table, row 3 (1, 4): not after the row before it",
    ("u64", "id out of range"): "order-2 events table, row 11 (6, 0): token id out of range",
    ("u64", "nan value"): "order-2 events (1, 4): log-probability nan is not finite and <= 0",
    ("u64", "inf value"): "order-2 events (1, 4): log-probability inf is not finite and <= 0",
    ("u64", "-inf value"): "order-2 events (1, 4): log-probability -inf is not finite and <= 0",
    ("wide", "out of order"):
        "order-6 events table, row 3 (1624, 3, 9, 9, 1625, 4): not after the row before it",
    ("wide", "repeated key"):
        "order-6 events table, row 3 (1624, 3, 9, 9, 1625, 4): not after the row before it",
    ("wide", "id out of range"):
        "order-6 events table, row 3 (1626, 0, 0, 0, 0, 0): token id out of range",
    ("wide", "nan value"):
        "order-6 events (1624, 3, 9, 9, 1625, 4): log-probability nan is not finite and <= 0",
    ("wide", "inf value"):
        "order-6 events (1624, 3, 9, 9, 1625, 4): log-probability inf is not finite and <= 0",
    ("wide", "-inf value"):
        "order-6 events (1624, 3, 9, 9, 1625, 4): log-probability -inf is not finite and <= 0",
}


@pytest.mark.parametrize("fault", sorted(_LOAD_FAULTS))
@pytest.mark.parametrize("column", sorted(_FAULT_TABLES))
def test_load_faults_keep_their_text_and_row(tmp_path, column, fault):
    raw, which = _FAULT_TABLES[column]
    raw = bytearray(raw)
    table = _v2_layout(raw)[2][which]
    assert table[1] == (8 if column == "u64" else 9) and table[3] >= 3
    _LOAD_FAULTS[fault](raw, table)
    path = tmp_path / "fault.lm"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        NGramModel.load(str(path))
    assert str(err.value) == f"{path}: {_LOAD_FAULT_TEXT[column, fault]}"


def _golden_model(order, min_count):
    bed = make_testbed(seed=7, n_mono=400, n_heldout=0, n_pairs_each=0)
    return bed, NGramModel.train(bed.src_mono, order=order, min_count=min_count)


# What bench/tracer.py counts as the rows of a model (its lm.rows): every
# n-gram and every non-empty context, for the training runs below.
@pytest.mark.parametrize("order, min_count, rows", [(4, 2, 6_980), (6, 1, 12_236)])
def test_trained_model_rows_are_unchanged(order, min_count, rows):
    _, model = _golden_model(order, min_count)
    assert len(model.logprobs.keys() | {c for c in model.backoffs if c}) == rows


# Digests of the format-2 files of the same training runs; a change here
# changes the model format.
@pytest.mark.parametrize(
    "order, min_count, digest",
    [
        (4, 2, "48ae21450ffac430ed2b70aa34ee92a716c5f04610cce9ab797a1f38a5d4fda6"),
        (6, 1, "3150fb6daf9797dceca1765528db29034997fab6aee7b8b0c8f8bf65e357bcf4"),
    ],
)
def test_trained_model_v2_file_bytes_are_unchanged(tmp_path, order, min_count, digest):
    _, model = _golden_model(order, min_count)
    model.save(str(tmp_path / "m.lm"))
    assert hashlib.sha256((tmp_path / "m.lm").read_bytes()).hexdigest() == digest
    model._index()  # and saved from the dict index the scorer builds
    model.save(str(tmp_path / "m.lm"))
    assert hashlib.sha256((tmp_path / "m.lm").read_bytes()).hexdigest() == digest
