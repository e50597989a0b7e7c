"""Independent reference implementations used to freeze expected values.

These are deliberately written in the most direct way possible (explicit
multiset arithmetic, no sharing with the library code) so tests compare two
independent derivations of the same quantity.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from collections import Counter


def bruteforce_fmeasure(hyp, ref, ref_pos, buckets):
    """Per-bucket (precision, recall, f1, matched, sys, ref) via raw multisets.

    Type-to-bucket assignment follows the majority-tag rule: unique majority
    joins every bucket containing the tag; tied majority joins only the
    lexicographically smallest bucket containing any tied tag.
    """
    tag_counts: dict[str, Counter] = {}
    for tokens, tags in zip(ref, ref_pos):
        for token, tag in zip(tokens, tags):
            tag_counts.setdefault(token, Counter())[tag] += 1

    member: dict[str, list[str]] = {}
    for token, counts in tag_counts.items():
        top = max(counts.values())
        tied = sorted(tag for tag, c in counts.items() if c == top)
        hit = [name for name in sorted(buckets) if set(buckets[name]) & set(tied)]
        if not hit:
            continue
        member[token] = hit if len(tied) == 1 else [hit[0]]

    out = {}
    for name in buckets:
        matched = sys_count = ref_count = 0
        for hyp_tokens, ref_tokens in zip(hyp, ref):
            hyp_in = [t for t in hyp_tokens if name in member.get(t, [])]
            ref_in = [t for t in ref_tokens if name in member.get(t, [])]
            sys_count += len(hyp_in)
            ref_count += len(ref_in)
            hc, rc = Counter(hyp_in), Counter(ref_in)
            matched += sum(min(hc[t], rc[t]) for t in hc)
        precision = matched / sys_count if sys_count else 0.0
        recall = matched / ref_count if ref_count else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        out[name] = (precision, recall, f1, matched, sys_count, ref_count)
    return out


def macro_f1_at_offset(raw_scores, gold_codes, c):
    """Macro-F1 of sign(raw + c) predictions, the way a downstream user applies c."""
    tp = {"S": 0, "T": 0}
    fp = {"S": 0, "T": 0}
    fn = {"S": 0, "T": 0}
    for raw, truth in zip(raw_scores, gold_codes):
        predicted = "S" if raw + c > 0 else "T"
        if predicted == truth:
            tp[truth] += 1
        else:
            fp[predicted] += 1
            fn[truth] += 1

    def f1(klass):
        p = tp[klass] / (tp[klass] + fp[klass]) if tp[klass] + fp[klass] else 0.0
        r = tp[klass] / (tp[klass] + fn[klass]) if tp[klass] + fn[klass] else 0.0
        return 2.0 * p * r / (p + r) if p + r else 0.0

    return (f1("S") + f1("T")) / 2.0


def js_divergence(counts_p, counts_q):
    """JS in nats straight from the definition over explicit probabilities."""
    total_p = sum(counts_p.values())
    total_q = sum(counts_q.values())
    tokens = set(counts_p) | set(counts_q)
    acc = 0.0
    for token in tokens:
        p = counts_p.get(token, 0) / total_p
        q = counts_q.get(token, 0) / total_q
        m = (p + q) / 2.0
        if p:
            acc += 0.5 * p * math.log(p / m)
        if q:
            acc += 0.5 * q * math.log(q / m)
    return acc


def bruteforce_writable(sentence):
    """Whether a sentence can be written as one corpus line and read back.

    Checks every character of every token: the sentence must be non-empty and
    each token non-empty with no character for which str.isspace() is true.
    """
    if not sentence:
        return False
    for token in sentence:
        if not token:
            return False
        for ch in token:
            if ch.isspace():
                return False
    return True


def tuple_event_logprob(logprobs, backoffs, context, wid):
    """log p(wid | context) by the back-off walk over id-tuple keyed tables.

    logprobs maps n-gram id tuples to log-probabilities and backoffs maps
    context id tuples to backoff weights; each miss adds the context's weight
    (if any) and drops the oldest context id. An id with no unigram ("<s>")
    has probability 0.
    """
    acc = 0.0
    while True:
        hit = logprobs.get(context + (wid,))
        if hit is not None:
            return acc + hit
        if not context:
            return -math.inf
        weight = backoffs.get(context)
        if weight is not None:
            acc += weight
        context = context[1:]


def tuple_sentence_logprob(order, token_ids, logprobs, backoffs, sentence):
    """(total log-probability, events) of a sentence plus its "</s>".

    The history starts as order-1 "<s>" ids; a data token spelled like a
    reserved symbol ("<unk>", "<s>", "</s>", ids 0..2) or missing from
    token_ids scores as "<unk>".
    """
    unk, bos, eos = 0, 1, 2
    history = (bos,) * (order - 1)
    total = 0.0
    for token in sentence:
        wid = token_ids.get(token, unk)
        if wid in (bos, eos):
            wid = unk
        total += tuple_event_logprob(logprobs, backoffs, history, wid)
        if history:
            history = history[1:] + (wid,)
    total += tuple_event_logprob(logprobs, backoffs, history, eos)
    return total, len(sentence) + 1


def tuple_word_logprob(order, token_ids, logprobs, backoffs, context, word):
    """log p(word | the last order-1 tokens of context); reserved symbols denote themselves."""
    if word == "<s>":
        return -math.inf
    kept = context[max(0, len(context) - order + 1) :]
    ids = tuple(token_ids.get(t, 0) for t in kept)
    return tuple_event_logprob(logprobs, backoffs, ids, token_ids.get(word, 0))


def model_bytes(order, tokens, logprobs, backoffs=None, *, train_token_count=None, discounts=None):
    """The bytes of a format-2 model file (see the lm module docstring) of id-tuple keyed tables.

    logprobs maps n-grams of 1..order ids and backoffs maps contexts of
    1..order-1 ids; a context needs no event of its own, and an n-gram of
    another length is not written. A token may be bytes, written as they
    are. Nothing is checked, so any fault can be written. Each table goes in
    key order; a key column is u64 when V**k <= 2**64 and otherwise
    big-endian in the fewest bytes that hold V**k - 1.
    """
    vocab_size = len(tokens)
    out = bytearray(b"NGLM" + struct.pack("<HHI", 2, order, vocab_size))
    for token in tokens:
        raw = token if isinstance(token, bytes) else token.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    flags = (train_token_count is not None) | (discounts is not None) << 1
    out += struct.pack("<BQ", flags, train_token_count or 0)
    out += struct.pack(f"<{order}d", *discounts or [0.0] * order)

    def packed(gram):  # the ids as base-V digits, oldest most significant
        return sum(i * vocab_size**e for e, i in enumerate(reversed(gram)))

    for k in range(1, order + 1):
        span = vocab_size**k
        for grams in [logprobs, backoffs or {}] if k < order else [logprobs]:
            table = sorted((packed(gram), value) for gram, value in grams.items() if len(gram) == k)
            keys = [key for key, _ in table]
            out += struct.pack("<I", len(table))
            if span <= 2**64:
                out += struct.pack(f"<{len(keys)}Q", *keys)
            else:
                width = ((span - 1).bit_length() + 7) // 8
                out += b"".join(key.to_bytes(width, "big") for key in keys)
            out += struct.pack(f"<{len(table)}d", *(value for _, value in table))
    return bytes(out)


def build_model(order, tokens, logprobs, backoffs=None, **meta):
    """NGramModel.load of the model_bytes of the same arguments, written to a temporary file."""
    from covbias import NGramModel  # imported here, as the benchmark loads this file by path

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.lm")
        with open(path, "wb") as handle:
            handle.write(model_bytes(order, tokens, logprobs, backoffs, **meta))
        return NGramModel.load(path)


def fmeasure_pairs(hyp, ref, ref_pos):
    """word_fmeasure's input: ParallelExample(hyp, ref, None, ref_pos) per line of three lists."""
    from covbias import ParallelExample  # imported here, as the benchmark loads this file by path

    return [ParallelExample(h, r, None, p) for h, r, p in zip(hyp, ref, ref_pos, strict=True)]


def tuple_train(corpus, order, min_count):
    """(tokens, logprobs, backoffs, discounts, token count) by the lm module docstring.

    Every table is keyed by id tuples and every float is computed in the
    order the docstring's formulas are written: raw counts at the top order,
    distinct left extensions below it, D_k = n1 / (n1 + 2 * n2) (0.75 when
    n1 or n2 is zero), unigrams interpolated with the uniform distribution
    over every token but "<s>", and each higher-order probability
    interpolated with exp of the stored lower-order log-probability.
    """
    reserved = ("<unk>", "<s>", "</s>")
    unk, bos, eos = 0, 1, 2
    freqs = Counter(token for sentence in corpus for token in sentence)
    kept = sorted(t for t, c in freqs.items() if c >= min_count and t not in reserved)
    tokens = reserved + tuple(kept)
    ids = {t: i for i, t in enumerate(kept, len(reserved))}

    counts = {k: Counter() for k in range(1, order + 1)}
    for sentence in corpus:
        row = [bos] * (order - 1) + [ids.get(t, unk) for t in sentence] + [eos]
        for end in range(order - 1, len(row)):
            counts[order][tuple(row[end - order + 1 : end + 1])] += 1
    for k in range(order - 1, 0, -1):
        for gram in counts[k + 1]:
            counts[k][gram[1:]] += 1

    discounts = []
    for k in range(1, order + 1):
        n1 = sum(1 for c in counts[k].values() if c == 1)
        n2 = sum(1 for c in counts[k].values() if c == 2)
        discounts.append(n1 / (n1 + 2 * n2) if n1 and n2 else 0.75)

    logprobs, backoffs = {}, {}
    d1 = discounts[0]
    total = sum(counts[1].values())
    interpolation = d1 * len(counts[1]) / total
    uniform = 1.0 / (len(tokens) - 1)
    for i in range(len(tokens)):
        if i != bos:
            c = counts[1].get((i,), 0)
            logprobs[(i,)] = math.log(max(c - d1, 0.0) / total + interpolation * uniform)
    for k in range(2, order + 1):
        dk = discounts[k - 1]
        context_total, context_types = Counter(), Counter()
        for gram, c in counts[k].items():
            context_total[gram[:-1]] += c
            context_types[gram[:-1]] += 1
        for context, t in context_total.items():
            backoffs[context] = math.log(dk * context_types[context] / t)
        for gram, c in counts[k].items():
            t, types = context_total[gram[:-1]], context_types[gram[:-1]]
            lower = math.exp(logprobs[gram[1:]])
            logprobs[gram] = math.log(max(c - dk, 0.0) / t + dk * types / t * lower)
    token_count = sum(len(sentence) for sentence in corpus)
    return tokens, logprobs, backoffs, tuple(discounts), token_count
