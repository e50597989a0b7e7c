"""Independent reference implementations used to freeze expected values.

These are deliberately written in the most direct way possible (explicit
multiset arithmetic, no sharing with the library code) so tests compare two
independent derivations of the same quantity.
"""

from __future__ import annotations

import math
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
