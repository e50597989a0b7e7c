"""Output checks, each against an independent computation or a property of the method.

Nothing here compares with a stored copy of an earlier output. Files are read
with plain string handling, not with the package's readers. The brute-force
references of the test suite (JS divergence, clipped F-measure, macro-F1 at
an offset) are loaded from tests/oracles.py; the synthetic inputs are the
benchmark's own and do not depend on anything under tests/.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import random
from collections import Counter

from harness import expect

CONTENT_TAGS = frozenset({"NOUN", "VERB", "ADJ"})
BUCKETS = {"adj": frozenset({"ADJ"}), "noun": frozenset({"NOUN"}), "verb": frozenset({"VERB"})}
ORIGIN_TAG = "<TORIG>"
SYNTHETIC_TAG = "<BT>"
REL_TOL = 1e-9
HERE = os.path.dirname(os.path.abspath(__file__))

@functools.cache
def oracles():
    """tests/oracles.py of the checkout, loaded by path on first use."""
    path = os.path.join(os.path.dirname(HERE), "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("covbias_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- plain readers ------------------------------------------------------------


def lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().split("\n")[:-1]


def token_rows(path: str) -> list[list[str]]:
    return [line.split() for line in lines(path)]


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def table(path: str, header: list[str]) -> list[list[str]]:
    rows = [line.split("\t") for line in lines(path)]
    expect(rows and rows[0] == header, f"{path}: header {rows[:1]} != {header}")
    for row in rows[1:]:
        expect(len(row) == len(header), f"{path}: row {row} has the wrong width")
    return rows[1:]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def macro_f1(predicted: list[str], gold: list[str]) -> float:
    per_class = []
    for klass in ("S", "T"):
        tp = sum(1 for p, g in zip(predicted, gold) if p == g == klass)
        fp = sum(1 for p, g in zip(predicted, gold) if p == klass != g)
        fn = sum(1 for p, g in zip(predicted, gold) if g == klass != p)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(per_class) / 2


# -- detection ----------------------------------------------------------------


def scores(path: str, count: int) -> list[float]:
    """One finite score per pair, in order, labelled S exactly when > 0."""
    rows = table(path, ["line_no", "score", "label"])
    expect(len(rows) == count, f"{path}: {len(rows)} rows for {count} pairs")
    values = []
    for expected_no, (line_no, score, label) in enumerate(rows, 1):
        value = float(score)
        expect(int(line_no) == expected_no, f"{path}: line_no {line_no} out of order")
        expect(math.isfinite(value), f"{path}: line {line_no} score {score} is not finite")
        expect(label == ("S" if value > 0 else "T"), f"{path}: line {line_no} label {label} for {score}")
        values.append(value)
    return values


def tuned_offset(path: str) -> tuple[float, float]:
    (row,) = table(path, ["c", "macro_f1"])
    return float(row[0]), float(row[1])


def tune_offset(tuned_path: str, tune_scores_path: str, gold_path: str) -> None:
    gold = lines(gold_path)
    raw = scores(tune_scores_path, len(gold))
    c, reported = tuned_offset(tuned_path)
    expect(math.isfinite(c), f"offset {c} is not finite")
    expected = oracles().macro_f1_at_offset(raw, gold, c)
    expect(close(reported, expected), f"macro-F1 {reported} at c={c}, recomputed {expected}")


def classified(records_path: str, raw_path: str, tuned_path: str, gold_path: str) -> None:
    gold = lines(gold_path)
    raw = scores(raw_path, len(gold))
    records = scores(records_path, len(gold))
    c, _ = tuned_offset(tuned_path)
    for line_no, (before, after) in enumerate(zip(raw, records), 1):
        expect(after == before + c, f"line {line_no}: {after} != {before} + {c}")
    labels = ["S" if value > 0 else "T" for value in records]
    f1 = macro_f1(labels, gold)
    expect(f1 >= 0.90, f"detection macro-F1 {f1:.4f} < 0.90")


def prefix_identical(prefix_path: str, full_path: str) -> None:
    prefix = lines(prefix_path)
    full = lines(full_path)
    expect(full[: len(prefix)] == prefix, "multi-threaded rows differ from single-threaded rows")


def selection(split_path: str, records_path: str, ratio: float) -> None:
    record_rows = table(records_path, ["line_no", "score", "label"])
    score_of = {int(n): float(s) for n, s, _ in record_rows}
    groups: dict[str, list[int]] = {"most_source": [], "most_target": []}
    for line_no, group in table(split_path, ["line_no", "group"]):
        expect(group in groups, f"unknown group {group}")
        groups[group].append(int(line_no))
    k = math.floor(ratio * len(record_rows) / 100)
    source, target = groups["most_source"], groups["most_target"]
    expect(len(source) == len(set(source)) == k, f"{len(source)} most_source lines, expected {k}")
    expect(len(target) == len(set(target)) == k, f"{len(target)} most_target lines, expected {k}")
    expect(not set(source) & set(target), "the two selections overlap")
    lowest_source = min(score_of[n] for n in source)
    highest_target = max(score_of[n] for n in target)
    expect(lowest_source >= highest_target, f"most_source {lowest_source} < most_target {highest_target}")


def normalization(model, text_path: str, seed: int, contexts: int = 16) -> None:
    """For a seeded sample of contexts, the model's conditional mass sums to 1."""
    rng = random.Random(seed)
    sentences = token_rows(text_path)
    pad = ["<s>"] * (model.order - 1)
    sample = [[], pad, pad[:-1] + ["zz-unseen"]]
    while len(sample) < contexts:
        row = pad + rng.choice(sentences)
        end = rng.randrange(len(pad), len(row) + 1)
        sample.append(row[max(0, end - model.order + 1) : end])
    predictable = [t for t in model.id_to_token if t != "<s>"]
    for context in sample:
        mass = math.fsum(math.exp(model.logprob_word(context, w)) for w in predictable)
        expect(abs(mass - 1.0) <= 1e-9, f"mass {mass!r} after context {context}")


# -- divergence, adequacy, abstraction -------------------------------------


def random_split(path: str, count: int, fraction: float) -> None:
    rows = table(path, ["line_no", "group"])
    expect([int(n) for n, _ in rows] == list(range(1, count + 1)), "random split does not cover 1..N")
    first = sum(1 for _, group in rows if group == "a")
    expect(first == math.floor(fraction * count), f"{first} lines in group a")
    expect({g for _, g in rows} <= {"a", "b"}, "unknown group in random split")


def _js_rows(path: str) -> dict[str, float]:
    rows = table(path, ["class", "js_nats", "js_x1e5"])
    out = {}
    for name, nats, scaled in rows:
        out[name] = float(nats)
        expect(close(float(scaled), float(nats) * 1e5), f"{path}: {name} scaled value")
    expect(set(out) == {"all", "content", "function"}, f"{path}: classes {sorted(out)}")
    return out


def jsdiv(js_path: str, split_path: str, text_path: str, pos_path: str) -> None:
    groups: dict[str, set[int]] = {}
    for line_no, group in table(split_path, ["line_no", "group"]):
        groups.setdefault(group, set()).add(int(line_no))
    first, second = (groups[name] for name in sorted(groups))
    counts = {key: {"all": Counter(), "content": Counter(), "function": Counter()} for key in "ab"}
    for line_no, (tokens, tags) in enumerate(zip(token_rows(text_path), token_rows(pos_path)), 1):
        key = "a" if line_no in first else "b" if line_no in second else None
        if key is None:
            continue
        for token, tag in zip(tokens, tags):
            counts[key]["all"][token] += 1
            counts[key]["content" if tag in CONTENT_TAGS else "function"][token] += 1
    reported = _js_rows(js_path)
    for name, value in reported.items():
        expected = oracles().js_divergence(counts["a"][name], counts["b"][name])
        expect(close(value, expected), f"{name}: JS {value} != independent {expected}")
        expect(0.0 <= value <= math.log(2), f"{name}: JS {value} outside [0, ln 2]")


def js_pattern(detected_path: str, random_path: str) -> None:
    detected = _js_rows(detected_path)
    baseline = _js_rows(random_path)
    expect(detected["all"] >= 10 * baseline["all"], f"detected JS {detected['all']} < 10x random {baseline['all']}")
    expect(detected["content"] > detected["function"], "content JS does not exceed function JS")


def fmeasure(report_path: str, hyp_path: str, ref_path: str, pos_path: str, construction_path: str) -> None:
    hyp, ref, ref_pos = token_rows(hyp_path), token_rows(ref_path), token_rows(pos_path)
    reference = oracles().bruteforce_fmeasure(hyp, ref, ref_pos, BUCKETS)
    tag_totals = Counter(tag for row in ref_pos for tag in row)
    replaced = Counter()
    duplicated = Counter()
    for replaced_tag, duplicated_tag in (row.split("\t") for row in lines(construction_path)):
        replaced[replaced_tag] += 1
        duplicated[duplicated_tag] += 1
    rows = table(report_path, ["bucket", "precision", "recall", "f1", "matched", "sys_count", "ref_count"])
    expect(sorted(r[0] for r in rows) == sorted(BUCKETS), f"buckets {[r[0] for r in rows]}")
    for name, precision, recall, f1, matched, sys_count, ref_count in rows:
        (tag,) = BUCKETS[name]
        built = (
            tag_totals[tag] - replaced[tag],
            tag_totals[tag] - replaced[tag] + duplicated[tag],
            tag_totals[tag],
        )
        got = (int(matched), int(sys_count), int(ref_count))
        expect(got == built, f"{name}: counts {got}, by construction {built}")
        expect(got == reference[name][3:], f"{name}: counts {got}, oracle {reference[name][3:]}")
        for label, value, want in zip(("precision", "recall", "f1"), (precision, recall, f1), reference[name]):
            expect(close(float(value), want), f"{name}: {label} {value} != oracle {want}")


def abstracted(out_path: str, text_path: str, pos_path: str) -> None:
    out, text, pos = token_rows(out_path), token_rows(text_path), token_rows(pos_path)
    expect(len(out) == len(text), f"{len(out)} abstracted lines for {len(text)}")
    for line_no, (got, tokens, tags) in enumerate(zip(out, text, pos), 1):
        expect(len(got) == len(tokens), f"line {line_no}: token count changed")
        for new, old, tag in zip(got, tokens, tags):
            want = tag if tag in CONTENT_TAGS else old
            expect(new == want, f"line {line_no}: {old}/{tag} became {new}")


def fluency(path: str) -> None:
    rows = table(path, ["level", "ppl", "diff"])
    expect([r[0] for r in rows] == ["plain", "abstracted"], f"levels {[r[0] for r in rows]}")
    for level, ppl, _ in rows:
        value = float(ppl)
        expect(math.isfinite(value) and value >= 1.0, f"{level} perplexity {ppl}")


def _labels(records_path: str) -> list[str]:
    return [label for _, _, label in table(records_path, ["line_no", "score", "label"])]


def tagged(out_src: str, out_tgt: str, src: str, tgt: str, records_path: str) -> None:
    labels = _labels(records_path)
    got, original = lines(out_src), lines(src)
    expect(len(got) == len(original) == len(labels), "tagged corpus has the wrong length")
    for line_no, (new, old, label) in enumerate(zip(got, original, labels), 1):
        want = f"{ORIGIN_TAG} {old}" if label == "T" else old
        expect(new == want, f"line {line_no} ({label}) tagged as {new[:40]!r}")
    stripped = "".join(line.removeprefix(ORIGIN_TAG + " ") + "\n" for line in got)
    expect(stripped.encode("utf-8") == read_bytes(src), "detagged source differs from the input")
    expect(read_bytes(out_tgt) == read_bytes(tgt), "target side changed by tagging")


def split_finetune(pre_src, pre_tgt, fine_src, fine_tgt, manifest, src, tgt, split_path) -> None:
    expect(read_bytes(pre_src) == read_bytes(src), "pretrain source differs from the input")
    expect(read_bytes(pre_tgt) == read_bytes(tgt), "pretrain target differs from the input")
    chosen = sorted(int(n) for n, group in table(split_path, ["line_no", "group"]) if group == "most_source")
    for got_path, all_path in ((fine_src, src), (fine_tgt, tgt)):
        every = lines(all_path)
        expect(lines(got_path) == [every[n - 1] for n in chosen], f"{got_path} is not the selected lines")
    rows = table(manifest, ["output_line_no", "provenance", "original_line_no"])
    expect(len(rows) == len(lines(src)) + len(chosen), "split manifest has the wrong length")


def merged(out_src, out_tgt, manifest, auth_src, auth_tgt, syn_src, syn_tgt) -> None:
    origin = {
        "authentic": (lines(auth_src), lines(auth_tgt), ""),
        "synthetic": (lines(syn_src), lines(syn_tgt), SYNTHETIC_TAG + " "),
    }
    rows = table(manifest, ["output_line_no", "provenance", "original_line_no"])
    got_src, got_tgt = lines(out_src), lines(out_tgt)
    expect(len(rows) == len(got_src) == len(got_tgt), "merged corpus and manifest lengths differ")
    seen = set()
    for out_no, (number, provenance, original) in enumerate(rows, 1):
        expect(int(number) == out_no, f"manifest row {out_no} numbered {number}")
        src_lines, tgt_lines, prefix = origin[provenance]
        index = int(original) - 1
        seen.add((provenance, index))
        expect(got_src[out_no - 1] == prefix + src_lines[index], f"output line {out_no} source")
        expect(got_tgt[out_no - 1] == tgt_lines[index], f"output line {out_no} target")
    total = sum(len(v[0]) for v in origin.values())
    expect(len(seen) == len(rows) == total, "manifest is not a permutation of the inputs")


# -- model reuse ----------------------------------------------------------------


def perplexity_value(path: str) -> float:
    (row,) = table(path, ["metric", "value"])
    expect(row[0] == "perplexity", f"{path}: metric {row[0]}")
    value = float(row[1])
    expect(math.isfinite(value) and value >= 1.0, f"{path}: perplexity {value}")
    return value


def own_language_wins(src_on_src, src_on_tgt, tgt_on_tgt, tgt_on_src) -> None:
    """Each model fits its own language best, and each text fits its own model best."""
    ss, st = perplexity_value(src_on_src), perplexity_value(src_on_tgt)
    tt, ts = perplexity_value(tgt_on_tgt), perplexity_value(tgt_on_src)
    expect(ss < st and ss < ts, f"source text/model {ss} vs {st}, {ts}")
    expect(tt < ts and tt < st, f"target text/model {tt} vs {ts}, {st}")
