"""End-to-end acceptance checks over the synthetic testbed.

Each test covers one numbered claim about the finished toolkit and prints a
single "criterion N: PASS/FAIL" line (run with -s to see them live). The
testbed is built once per session: two 300-concept topic lexicons with 20%
overlap, shared function-word templates, 10,000 monolingual lines per side,
and 2,000 + 2,000 parallel pairs with known origins.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from covbias import (
    DEFAULT_CONTENT_TAGS,
    DEFAULT_ORIGIN_TAG,
    NGramModel,
    OriginLabel,
    js,
    label_for,
    perplexity,
    tune_offset,
    word_fmeasure,
)
from covbias.abstraction import _abstractor
from covbias.cli import main as cli_main
from covbias.fileio import read_tsv
from covbias.lm import BOS

from oracles import bruteforce_fmeasure, fmeasure_pairs, macro_f1_at_offset


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {title}")
        raise
    print(f"criterion {number}: PASS - {title}")


def _run(args):
    code = cli_main([str(a) for a in args])
    assert code == 0, f"covbias {args[0]} exited {code}"


def _read_gold(path):
    with open(path, encoding="utf-8") as handle:
        return [OriginLabel.from_code(line.strip()) for line in handle]


def _class_nats(word_class, nats):
    return word_class, float(nats)


_MANIFEST = ["output_line_no", "provenance", "original_line_no"]


def _manifest_row(out_no, provenance, original_no):
    return int(out_no), provenance, int(original_no)


_detection_state = {}


def _detection(bed_dir, bed_models):
    """Score, tune, and classify through the CLI once; memoize the outputs."""
    if _detection_state:
        return _detection_state
    root = bed_dir.root
    started = time.perf_counter()

    tune_scores = root / "tune_scores.tsv"
    _run(
        [
            "score-pairs",
            "--source-model", bed_models.source,
            "--target-model", bed_models.target,
            "--source", bed_dir.tune_src,
            "--target", bed_dir.tune_tgt,
            "--output", tune_scores,
        ]
    )
    with open(bed_dir.tune_gold, encoding="utf-8") as handle:
        gold_codes = [line.strip() for line in handle]
    scores = read_tsv(str(tune_scores), ["score"], str)
    assert len(scores) == len(gold_codes)
    tune_table = root / "tune_table.tsv"
    with open(tune_table, "w", encoding="utf-8") as handle:
        handle.write("score\tgold\n")
        for score, gold in zip(scores, gold_codes):
            handle.write(f"{score}\t{gold}\n")

    tuned = root / "tuned.tsv"
    _run(["tune-offset", "--input", tune_table, "--output", tuned])
    (c,) = read_tsv(str(tuned), ["c", "macro_f1"], lambda c, _: float(c))

    eval_raw = root / "eval_raw.tsv"
    _run(
        [
            "score-pairs",
            "--source-model", bed_models.source,
            "--target-model", bed_models.target,
            "--source", bed_dir.eval_src,
            "--target", bed_dir.eval_tgt,
            "--output", eval_raw,
        ]
    )
    records_path = root / "eval_records.tsv"
    _run(["classify", "--scores", eval_raw, "--offset-c", repr(c), "--output", records_path])

    rows = read_tsv(
        str(records_path), ["line_no", "score", "label"], lambda n, x, label: (int(n), float(x), label)
    )
    records = [(line_no, score) for line_no, score, _ in rows]
    # the label column is the one each score is labelled with
    assert [label for _, _, label in rows] == [label_for(score).code for _, score in records]
    _detection_state.update(
        offset=c,
        records=records,
        records_path=str(records_path),
        eval_raw=str(eval_raw),
        seconds=time.perf_counter() - started,
    )
    return _detection_state


def test_criterion_1_detection_fidelity(bed_dir, bed_models):
    with criterion(1, "synthetic detection macro-F1 >= 0.90 in under 60 s"):
        state = _detection(bed_dir, bed_models)
        gold = _read_gold(bed_dir.eval_gold)
        records = state["records"]
        assert [line_no for line_no, _ in records] == list(range(1, len(gold) + 1))
        scores = [score for _, score in records]
        macro_f1 = macro_f1_at_offset(scores, [label.code for label in gold], 0.0)
        elapsed = bed_models.train_seconds + state["seconds"]
        assert macro_f1 >= 0.90, f"macro-F1 {macro_f1:.4f}"
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f} s"


def test_criterion_2_divergence_pattern(bed_dir, bed_models):
    with criterion(2, "detected-origin JS >= 10x random split, content > function"):
        state = _detection(bed_dir, bed_models)
        root = bed_dir.root
        started = time.perf_counter()
        selection = root / "selection.tsv"
        _run(["select", "--records", state["records_path"], "--ratio", "50",
              "--output", selection])
        js_detected = root / "js_detected.tsv"
        _run(
            [
                "jsdiv",
                "--source", bed_dir.eval_src,
                "--target", bed_dir.eval_tgt,
                "--side", "source",
                "--source-pos", bed_dir.eval_src_pos,
                "--split", selection,
                "--output", js_detected,
            ]
        )
        random_table = root / "random_split.tsv"
        _run(["random-split", "--count", str(bed_dir.n_eval), "--fraction", "0.5",
              "--seed", "13", "--output", random_table])
        js_random = root / "js_random.tsv"
        _run(
            [
                "jsdiv",
                "--source", bed_dir.eval_src,
                "--target", bed_dir.eval_tgt,
                "--side", "source",
                "--source-pos", bed_dir.eval_src_pos,
                "--split", random_table,
                "--output", js_random,
            ]
        )
        elapsed = time.perf_counter() - started

        detected = dict(read_tsv(str(js_detected), ["class", "js_nats"], _class_nats))
        randomized = dict(read_tsv(str(js_random), ["class", "js_nats"], _class_nats))
        assert detected["all"] >= 10.0 * randomized["all"], (
            f"ratio only {detected['all'] / randomized['all']:.2f}"
        )
        assert detected["content"] > detected["function"]
        assert elapsed < 10.0, f"divergence stage took {elapsed:.1f} s"


def test_criterion_3_js_unit_truths():
    with criterion(3, "JS exactness: self 0, disjoint ln 2, symmetry, known value"):
        p = {"a": 5, "b": 3, "c": 9}
        assert js(p, p) == 0.0
        scaled = {"a": 10, "b": 6, "c": 18}
        assert js(p, scaled) == 0.0

        q = {"d": 2, "e": 7}
        assert math.isclose(js(p, q), math.log(2), rel_tol=0, abs_tol=1e-12)

        rng = random.Random(3)
        letters = "abcdefgh"
        for _ in range(20):
            cp = {t: rng.randint(1, 30) for t in rng.sample(letters, rng.randint(1, 6))}
            cq = {t: rng.randint(1, 30) for t in rng.sample(letters, rng.randint(1, 6))}
            assert js(cp, cq) == js(cq, cp)

        skew = {"x": 3, "y": 1}
        anti = {"x": 1, "y": 3}
        assert math.isclose(js(skew, anti), 0.130812, rel_tol=0, abs_tol=1e-6)


def test_criterion_4_lm_normalization_and_round_trip(tmp_path):
    with criterion(4, "conditional mass sums to 1 everywhere; save/load bit-exact"):
        rng = random.Random(4)
        words = [f"w{i}" for i in range(8)]
        corpus = [
            tuple(rng.choice(words) for _ in range(rng.randint(1, 7)))
            for _ in range(60)
        ]
        model = NGramModel.train(corpus, order=3, min_count=1)
        assert len(model.id_to_token) <= 20
        predictable = [t for t in model.id_to_token if t != BOS]
        contexts = [()]
        contexts += [(a,) for a in model.id_to_token]
        contexts += [(a, b) for a in model.id_to_token for b in model.id_to_token]
        for ctx in contexts:
            mass = math.fsum(
                math.exp(model.logprob_word(ctx, w)) for w in predictable
            )
            assert abs(mass - 1.0) <= 1e-6, (ctx, mass)

        path = tmp_path / "model.lm"
        model.save(str(path))
        loaded = NGramModel.load(str(path))
        sample_words = words + ["unseen-token"]
        for _ in range(100):
            sentence = tuple(
                rng.choice(sample_words) for _ in range(rng.randint(1, 9))
            )
            assert loaded.logprob(sentence) == model.logprob(sentence)


def test_criterion_5_cross_perplexity_ordering(bed, bed_models):
    with criterion(5, "each LM is strictly better on its own held-out side"):
        source_lm = NGramModel.load(bed_models.source)
        target_lm = NGramModel.load(bed_models.target)
        assert perplexity(source_lm, bed.src_heldout) < perplexity(target_lm, bed.src_heldout)
        assert perplexity(target_lm, bed.tgt_heldout) < perplexity(source_lm, bed.tgt_heldout)


def _grid_macro_f1(scores, gold_codes, offsets):
    """Macro-F1 of sign(score + c) for every offset in one vectorized sweep."""
    s = np.asarray(scores, dtype=np.float64)
    gold_s = np.asarray([g == "S" for g in gold_codes])
    pred_s = s[None, :] + offsets[:, None] > 0.0

    def counts(pred, gold):
        tp = (pred & gold).sum(axis=1).astype(np.float64)
        fp = (pred & ~gold).sum(axis=1).astype(np.float64)
        fn = ((~pred) & gold).sum(axis=1).astype(np.float64)
        return tp, fp, fn

    def f1(tp, fp, fn):
        precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1.0), 0.0)
        recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1.0), 0.0)
        denom = precision + recall
        return np.where(
            denom > 0, 2.0 * precision * recall / np.maximum(denom, 1e-300), 0.0
        )

    f1_s = f1(*counts(pred_s, gold_s))
    f1_t = f1(*counts(~pred_s, ~gold_s))
    return (f1_s + f1_t) / 2.0


def test_criterion_6_tuned_offset_beats_a_dense_grid():
    with criterion(6, "tuned offset >= best of a 10^4-point grid, F1 value exact"):
        rng = random.Random(6)
        offsets = np.linspace(-5.25, 5.25, 10_000)
        for _ in range(50):
            n = rng.randint(2, 200)
            scores = [rng.randrange(-20, 21) / 4 for _ in range(n)]
            codes = [rng.choice("ST") for _ in range(n)]
            codes[0], codes[1] = "S", "T"  # guarantee both classes
            scored = [
                (score, OriginLabel.from_code(code))
                for score, code in zip(scores, codes)
            ]
            c, f1 = tune_offset(scored)
            # the reported F1 is exactly what a user gets by applying c
            assert macro_f1_at_offset(scores, codes, c) == f1
            grid_best = float(_grid_macro_f1(scores, codes, offsets).max())
            assert f1 >= grid_best, (f1, grid_best)


def test_criterion_7_fmeasure_matches_bruteforce_oracle():
    with criterion(7, "word F-measure equals the brute-force multiset oracle"):
        rng = random.Random(7)
        words = [f"v{i}" for i in range(9)]
        tags = ["NOUN", "VERB", "ADJ", "DET", "ADP", "PRON"]
        buckets = {
            "noun": frozenset({"NOUN"}),
            "verb": frozenset({"VERB"}),
            "adj": frozenset({"ADJ"}),
        }
        for _ in range(100):
            n_lines = rng.randint(1, 5)
            ref, ref_pos, hyp = [], [], []
            for _ in range(n_lines):
                length = rng.randint(1, 8)
                ref.append(tuple(rng.choice(words) for _ in range(length)))
                ref_pos.append(tuple(rng.choice(tags) for _ in range(length)))
                hyp.append(tuple(rng.choice(words) for _ in range(rng.randint(1, 8))))
            expected = bruteforce_fmeasure(hyp, ref, ref_pos, buckets)
            got = word_fmeasure(fmeasure_pairs(hyp, ref, ref_pos), buckets)
            for name in buckets:
                assert tuple(got[name]) == expected[name], name


def _partition_gap(train_lm, own_held, other_held):
    own = perplexity(train_lm, own_held)
    other = perplexity(train_lm, other_held)
    return (other - own) / own


def test_criterion_8_abstraction_collapses_the_content_gap(bed):
    with criterion(8, "cross-topic perplexity gap > 20% plain, < 5% abstracted"):
        sides = {}
        for label in OriginLabel:
            text = [
                pair.source
                for pair, gold in zip(bed.pairs, bed.gold)
                if gold is label
            ]
            pos = [
                pair.source_pos
                for pair, gold in zip(bed.pairs, bed.gold)
                if gold is label
            ]
            cut = (4 * len(text)) // 5
            abstracted = list(map(_abstractor(DEFAULT_CONTENT_TAGS, "", ""), text, pos))
            sides[label] = {
                "plain_lm": NGramModel.train(text[:cut], order=3, min_count=2),
                "plain_held": text[cut:],
                "abs_lm": NGramModel.train(abstracted[:cut], order=3, min_count=2),
                "abs_held": abstracted[cut:],
            }
        a, b = sides[OriginLabel.SOURCE_ORIGINAL], sides[OriginLabel.TARGET_ORIGINAL]
        for here, there in ((a, b), (b, a)):
            plain_gap = _partition_gap(
                here["plain_lm"], here["plain_held"], there["plain_held"]
            )
            abs_gap = _partition_gap(
                here["abs_lm"], here["abs_held"], there["abs_held"]
            )
            assert plain_gap > 0.20, f"plain gap only {plain_gap:.2%}"
            assert abs(abs_gap) < 0.05, f"abstracted gap {abs_gap:.2%}"


def test_criterion_9_data_prep_integrity(bed_dir, bed_models):
    with criterion(9, "tag/detag byte-exact, split sizes, manifests, determinism"):
        state = _detection(bed_dir, bed_models)
        root = bed_dir.root
        n_eval = bed_dir.n_eval

        # -- tag is invertible and reruns are byte-identical ------------------
        tag_args = [
            "tag",
            "--source", bed_dir.eval_src,
            "--target", bed_dir.eval_tgt,
            "--records", state["records_path"],
        ]
        tagged_src, tagged_tgt = root / "tagged.src", root / "tagged.tgt"
        _run(tag_args + ["--out-source", tagged_src, "--out-target", tagged_tgt])
        again_src, again_tgt = root / "tagged2.src", root / "tagged2.tgt"
        _run(tag_args + ["--out-source", again_src, "--out-target", again_tgt])
        assert tagged_src.read_bytes() == again_src.read_bytes()
        assert tagged_tgt.read_bytes() == again_tgt.read_bytes()
        with open(bed_dir.eval_tgt, "rb") as handle:
            assert tagged_tgt.read_bytes() == handle.read()

        # dropping the leading tag from each tagged line gives the input bytes back
        prefix = DEFAULT_ORIGIN_TAG.encode("utf-8") + b" "
        lines = tagged_src.read_bytes().splitlines(keepends=True)
        with open(bed_dir.eval_src, "rb") as handle:
            assert b"".join(line.removeprefix(prefix) for line in lines) == handle.read()

        # -- fine-tuning split sizes match the extreme selection --------------
        selection = root / "sel50.tsv"
        _run(["select", "--records", state["records_path"], "--ratio", "50",
              "--output", selection])
        sel_rows = read_tsv(str(selection), ["line_no", "group"], lambda n, group: (int(n), group))
        most_source = {line_no for line_no, group in sel_rows if group == "most_source"}
        assert len(most_source) == (50 * n_eval) // 100

        split_outs = {
            name: root / name
            for name in ("pre.src", "pre.tgt", "fine.src", "fine.tgt", "manifest.tsv")
        }
        _run(
            [
                "split-finetune",
                "--source", bed_dir.eval_src,
                "--target", bed_dir.eval_tgt,
                "--selection", selection,
                "--out-pretrain-source", split_outs["pre.src"],
                "--out-pretrain-target", split_outs["pre.tgt"],
                "--out-finetune-source", split_outs["fine.src"],
                "--out-finetune-target", split_outs["fine.tgt"],
                "--manifest", split_outs["manifest.tsv"],
            ]
        )
        with open(bed_dir.eval_src, "rb") as handle:
            assert split_outs["pre.src"].read_bytes() == handle.read()
        fine_lines = split_outs["fine.src"].read_text(encoding="utf-8").splitlines()
        assert len(fine_lines) == len(most_source)
        manifest_rows = read_tsv(str(split_outs["manifest.tsv"]), _MANIFEST, _manifest_row)
        finetune_rows = [r for r in manifest_rows if r[1] == "finetune"]
        pretrain_rows = [r for r in manifest_rows if r[1] == "pretrain"]
        assert len(pretrain_rows) == n_eval
        assert len(finetune_rows) == len(most_source)
        originals = [original_no for _, _, original_no in finetune_rows]
        assert originals == sorted(originals)
        assert set(originals) == most_source

        # -- merge manifest partitions the output exactly ----------------------
        merge_outs = [root / "merged.src", root / "merged.tgt", root / "merged.manifest"]
        merge_args = [
            "merge-augment",
            "--authentic-source", bed_dir.eval_src,
            "--authentic-target", bed_dir.eval_tgt,
            "--synthetic-source", bed_dir.eval_src,
            "--synthetic-target", bed_dir.eval_tgt,
            "--tag-token", "<BT>",
            "--seed", "77",
            "--out-source", merge_outs[0],
            "--out-target", merge_outs[1],
            "--manifest", merge_outs[2],
        ]
        _run(merge_args)
        first = [p.read_bytes() for p in merge_outs]
        merged_lines = merge_outs[0].read_text(encoding="utf-8").splitlines()
        with open(bed_dir.eval_src, encoding="utf-8") as handle:
            eval_lines = handle.read().splitlines()
        rows = read_tsv(str(merge_outs[2]), _MANIFEST, _manifest_row)
        assert sorted(out_no for out_no, _, _ in rows) == list(range(1, 2 * n_eval + 1))
        for out_no, provenance, original_no in rows:
            out_line = merged_lines[out_no - 1]
            original = eval_lines[original_no - 1]
            if provenance == "synthetic":
                assert out_line == "<BT> " + original
            else:
                assert out_line == original
        _run(merge_args)
        assert [p.read_bytes() for p in merge_outs] == first

        # -- the scoring stage is thread-count invariant -----------------------
        outputs = []
        for threads in ("1", "3", "4"):
            out = root / f"scores_t{threads}.tsv"
            _run(
                [
                    "score-pairs",
                    "--source-model", bed_models.source,
                    "--target-model", bed_models.target,
                    "--source", bed_dir.eval_src,
                    "--target", bed_dir.eval_tgt,
                    "--output", out,
                    "--threads", threads,
                ]
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        with open(state["eval_raw"], "rb") as handle:
            assert outputs[0] == handle.read()
