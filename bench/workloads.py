"""The three workloads: their inputs, set-up phase, measured phase and checks.

Each phase is a function of a runner, so the same steps run as child
processes (end-to-end metrics) or in-process under the tracer (per-layer
metrics). Set-up holds the program runs that build what the measured phase
reads and that a user does once; everything a phase needs is on disk.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable
from dataclasses import dataclass

import checks
import synth

# Sizes per scale. "full" is what BENCHMARK.json runs; "smoke" exercises every
# step and check in seconds.
SCALES = {
    "full": {
        "detect-score": dict(mono=4500, pairs_each=10000, tune=10000, order=4, ratio=25),
        "coverage-analysis": dict(mono=3000, pairs_each=6000, synthetic_each=2000, order=3, ratio=50),
        "model-reuse": dict(mono=9000, heldout=1000, shards=5, shard_each=100, order=4),
    },
    "smoke": {
        "detect-score": dict(mono=2000, pairs_each=500, tune=200, order=4, ratio=25),
        "coverage-analysis": dict(mono=1500, pairs_each=1500, synthetic_each=100, order=3, ratio=50),
        "model-reuse": dict(mono=1500, heldout=100, shards=2, shard_each=20, order=4),
    },
}

MIN_COUNT = 2


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[str, int, dict], None]
    setup: Callable  # (runner, path, size) -> None
    check_setup: Callable  # (runner, path, size, seed) -> None
    measure: Callable  # (runner, path, size, seed) -> None


def _train(r, path, text: str, model: str, order: int) -> None:
    r.cli("train-lm", "--input", path(text), "--output", path(model),
          "--order", order, "--min-count", MIN_COUNT)


def _normalization(r, path, models_and_text, seed: int) -> None:
    from covbias import NGramModel

    for model, text in models_and_text:
        loaded = NGramModel.load(path(model))
        r.check(f"normalization {model}", checks.normalization, loaded, path(text), seed)


# -- detect-score ---------------------------------------------------------


def _detect_inputs(d: str, seed: int, size: dict) -> None:
    gen = synth.Generator(seed)
    synth.write_mono(d, "src.mono", gen.mono("S", size["mono"]), "src")
    synth.write_mono(d, "tgt.mono", gen.mono("T", size["mono"]), "tgt")
    pairs = gen.pairs(size["pairs_each"])
    synth.write_pairs(d, "pairs", pairs)
    synth.write_pairs(d, "tune", pairs[: size["tune"]])


def _detect_setup(r, path, size) -> None:
    _train(r, path, "src.mono", "src.lm", size["order"])
    _train(r, path, "tgt.mono", "tgt.lm", size["order"])


def _lm_check_setup(r, path, size, seed) -> None:
    _normalization(r, path, [("src.lm", "src.mono"), ("tgt.lm", "tgt.mono")], seed)


def _detect_measure(r, path, size, seed) -> None:
    models = ("--source-model", path("src.lm"), "--target-model", path("tgt.lm"))
    r.cli("score-pairs", *models, "--source", path("tune.src"), "--target", path("tune.tgt"),
          "--threads", 1, "--output", path("tune_scores.tsv"))
    gold = checks.lines(path("tune.gold"))
    rows = checks.table(path("tune_scores.tsv"), ["line_no", "score", "label"])
    synth.write_lines(path("tune_table.tsv"),
                      ["score\tgold"] + [f"{row[1]}\t{g}" for row, g in zip(rows, gold)])
    r.cli("tune-offset", "--input", path("tune_table.tsv"), "--output", path("tuned.tsv"))
    offset = checks.table(path("tuned.tsv"), ["c", "macro_f1"])[0][0]
    r.cli("score-pairs", *models, "--source", path("pairs.src"), "--target", path("pairs.tgt"),
          "--threads", 2, "--output", path("raw.tsv"))
    r.cli("classify", "--scores", path("raw.tsv"), "--offset-c", offset, "--output", path("records.tsv"))
    r.cli("select", "--records", path("records.tsv"), "--ratio", size["ratio"], "--output", path("split.tsv"))

    n_pairs = 2 * size["pairs_each"]
    r.check("tune scores", checks.scores, path("tune_scores.tsv"), size["tune"])
    r.check("pair scores", checks.scores, path("raw.tsv"), n_pairs)
    r.check("tune-offset macro-F1", checks.tune_offset, path("tuned.tsv"),
            path("tune_scores.tsv"), path("tune.gold"))
    r.check("classify", checks.classified, path("records.tsv"), path("raw.tsv"),
            path("tuned.tsv"), path("pairs.gold"))
    r.check("threads agree", checks.prefix_identical, path("tune_scores.tsv"), path("raw.tsv"))
    r.check("select", checks.selection, path("split.tsv"), path("records.tsv"), size["ratio"])


# -- coverage-analysis --------------------------------------------------------


def _coverage_inputs(d: str, seed: int, size: dict) -> None:
    gen = synth.Generator(seed)
    synth.write_mono(d, "src.mono", gen.mono("S", size["mono"]), "src")
    synth.write_mono(d, "tgt.mono", gen.mono("T", size["mono"]), "tgt", with_pos=True)
    pairs = gen.pairs(size["pairs_each"])
    synth.write_pairs(d, "pairs", pairs, with_pos=True)
    synth.write_pairs(d, "synthetic", gen.pairs(size["synthetic_each"]))
    rng = random.Random(seed + 1)
    hyp, construction = [], []
    for words, tags, _ in pairs:
        words, replaced, duplicated = synth.perturb(rng, words, tags)
        hyp.append(synth.render(words, "tgt"))
        construction.append(f"{replaced}\t{duplicated}")
    synth.write_lines(os.path.join(d, "hyp.tgt"), hyp)
    synth.write_lines(os.path.join(d, "hyp.construction"), construction)


def _coverage_setup(r, path, size) -> None:
    _train(r, path, "src.mono", "src.lm", size["order"])
    _train(r, path, "tgt.mono", "tgt.lm", size["order"])
    r.cli("abstract", "--input", path("tgt.mono"), "--pos", path("tgt.mono.pos"),
          "--output", path("tgt.mono.abs"))
    _train(r, path, "tgt.mono.abs", "tgt.abs.lm", size["order"])
    r.cli("score-pairs", "--source-model", path("src.lm"), "--target-model", path("tgt.lm"),
          "--source", path("pairs.src"), "--target", path("pairs.tgt"), "--output", path("raw.tsv"))
    r.cli("classify", "--scores", path("raw.tsv"), "--output", path("records.tsv"))


def _coverage_check_setup(r, path, size, seed) -> None:
    r.check("setup records", checks.scores, path("records.tsv"), 2 * size["pairs_each"])


def _coverage_measure(r, path, size, seed) -> None:
    n_pairs = 2 * size["pairs_each"]
    pairs = ("--source", path("pairs.src"), "--target", path("pairs.tgt"))
    r.cli("select", "--records", path("records.tsv"), "--ratio", size["ratio"], "--output", path("split.tsv"))
    r.cli("random-split", "--count", n_pairs, "--fraction", 0.5, "--seed", seed,
          "--output", path("random.tsv"))
    for split, out in (("split.tsv", "js.tsv"), ("random.tsv", "js_random.tsv")):
        r.cli("jsdiv", *pairs, "--side", "source", "--source-pos", path("pairs.src.pos"),
              "--split", path(split), "--output", path(out))
    r.cli("fmeasure", "--hyp", path("hyp.tgt"), "--ref", path("pairs.tgt"),
          "--ref-pos", path("pairs.tgt.pos"), "--output", path("fmeasure.tsv"))
    r.cli("abstract", "--input", path("pairs.tgt"), "--pos", path("pairs.tgt.pos"),
          "--output", path("pairs.tgt.abs"))
    r.cli("fluency", "--input", path("pairs.tgt"), "--pos", path("pairs.tgt.pos"),
          "--plain-lm", path("tgt.lm"), "--abstracted-lm", path("tgt.abs.lm"),
          "--output", path("fluency.tsv"))
    r.cli("tag", *pairs, "--records", path("records.tsv"),
          "--out-source", path("tagged.src"), "--out-target", path("tagged.tgt"))
    r.cli("split-finetune", *pairs, "--selection", path("split.tsv"),
          "--out-pretrain-source", path("pre.src"), "--out-pretrain-target", path("pre.tgt"),
          "--out-finetune-source", path("fine.src"), "--out-finetune-target", path("fine.tgt"),
          "--manifest", path("split_manifest.tsv"))
    r.cli("merge-augment", "--authentic-source", path("pairs.src"), "--authentic-target", path("pairs.tgt"),
          "--synthetic-source", path("synthetic.src"), "--synthetic-target", path("synthetic.tgt"),
          "--tag-token", checks.SYNTHETIC_TAG, "--seed", seed,
          "--out-source", path("merged.src"), "--out-target", path("merged.tgt"),
          "--manifest", path("merge_manifest.tsv"))

    r.check("select", checks.selection, path("split.tsv"), path("records.tsv"), size["ratio"])
    r.check("random-split", checks.random_split, path("random.tsv"), n_pairs, 0.5)
    for split, out in (("split.tsv", "js.tsv"), ("random.tsv", "js_random.tsv")):
        r.check(f"jsdiv {split}", checks.jsdiv, path(out), path(split),
                path("pairs.src"), path("pairs.src.pos"))
    r.check("jsdiv pattern", checks.js_pattern, path("js.tsv"), path("js_random.tsv"))
    r.check("fmeasure", checks.fmeasure, path("fmeasure.tsv"), path("hyp.tgt"),
            path("pairs.tgt"), path("pairs.tgt.pos"), path("hyp.construction"))
    r.check("abstract", checks.abstracted, path("pairs.tgt.abs"), path("pairs.tgt"), path("pairs.tgt.pos"))
    r.check("fluency", checks.fluency, path("fluency.tsv"))
    r.check("tag", checks.tagged, path("tagged.src"), path("tagged.tgt"),
            path("pairs.src"), path("pairs.tgt"), path("records.tsv"))
    r.check("split-finetune", checks.split_finetune, path("pre.src"), path("pre.tgt"),
            path("fine.src"), path("fine.tgt"), path("split_manifest.tsv"),
            path("pairs.src"), path("pairs.tgt"), path("split.tsv"))
    r.check("merge-augment", checks.merged, path("merged.src"), path("merged.tgt"),
            path("merge_manifest.tsv"), path("pairs.src"), path("pairs.tgt"),
            path("synthetic.src"), path("synthetic.tgt"))


# -- model-reuse ----------------------------------------------------------------


def _reuse_inputs(d: str, seed: int, size: dict) -> None:
    gen = synth.Generator(seed)
    synth.write_mono(d, "src.mono", gen.mono("S", size["mono"]), "src")
    synth.write_mono(d, "tgt.mono", gen.mono("T", size["mono"]), "tgt")
    synth.write_mono(d, "src.held", gen.mono("S", size["heldout"]), "src")
    synth.write_mono(d, "tgt.held", gen.mono("T", size["heldout"]), "tgt")
    for shard in range(size["shards"]):
        synth.write_pairs(d, f"shard{shard:02d}", gen.pairs(size["shard_each"]))


def _reuse_setup(r, path, size) -> None:
    _train(r, path, "src.mono", "src.lm", size["order"])
    _train(r, path, "tgt.mono", "tgt.lm", size["order"])


def _reuse_measure(r, path, size, seed) -> None:
    for model in ("src", "tgt"):
        for text in ("src", "tgt"):
            r.cli("perplexity", "--model", path(f"{model}.lm"), "--input", path(f"{text}.held"),
                  "--output", path(f"ppl_{model}_on_{text}.tsv"))
    for shard in range(size["shards"]):
        name = f"shard{shard:02d}"
        r.cli("score-pairs", "--source-model", path("src.lm"), "--target-model", path("tgt.lm"),
              "--source", path(f"{name}.src"), "--target", path(f"{name}.tgt"),
              "--output", path(f"{name}.tsv"))

    r.check("perplexity ordering", checks.own_language_wins, path("ppl_src_on_src.tsv"),
            path("ppl_src_on_tgt.tsv"), path("ppl_tgt_on_tgt.tsv"), path("ppl_tgt_on_src.tsv"))
    for shard in range(size["shards"]):
        name = f"shard{shard:02d}"
        r.check(f"{name} scores", checks.scores, path(f"{name}.tsv"), 2 * size["shard_each"])


WORKLOADS = {
    "detect-score": Workload(
        _detect_inputs, _detect_setup, _lm_check_setup, _detect_measure
    ),
    "coverage-analysis": Workload(
        _coverage_inputs, _coverage_setup, _coverage_check_setup, _coverage_measure
    ),
    "model-reuse": Workload(
        _reuse_inputs, _reuse_setup, _lm_check_setup, _reuse_measure
    ),
}
