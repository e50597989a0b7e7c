"""Interpolated modified-count n-gram language models with binary storage.

Training uses Kneser-Ney style estimation: raw counts at the highest order,
left-extension continuation counts at every lower order, and one absolute
discount per order estimated from that order's counts of counts,

    D_k = n1 / (n1 + 2 * n2)

falling back to 0.75 when n1 or n2 is zero. Each seen n-gram stores its fully
interpolated conditional log-probability; each seen context h stores a backoff
weight beta(h) = D * T(h) / c(h) (T = distinct continuations, c = total
count), so an unseen n-gram scores as beta(h) * p(w | shortened h). The
unigram level interpolates with the uniform distribution over the vocabulary
minus "<s>", which is never predicted. All logs are natural.

Scoring pads with order-1 "<s>" symbols and predicts a terminating "</s>".
Out-of-vocabulary tokens map to "<unk>"; literal data tokens spelled like one
of the reserved symbols are masked to "<unk>" as well, at train and score
time, so text cannot forge sentence boundaries.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple

from .corpus import Sentence
from .errors import DegenerateVocabulary, EmptyCorpus, FormatError

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"
RESERVED = (UNK, BOS, EOS)
UNK_ID, BOS_ID, EOS_ID = 0, 1, 2

MODEL_FORMAT_VERSION = 1
_MAGIC = b"NGLM"
_MAX_ORDER = 6
_FALLBACK_DISCOUNT = 0.75
_U32 = struct.Struct("<I")
_VERSION_ORDER = struct.Struct("<HH")

# Log-probability placeholder for rows that exist only to carry a context's
# backoff weight (real event probabilities are always finite and negative).
_NO_PROB = -math.inf


class LmScore(NamedTuple):
    total_logprob: float
    token_count: int  # scored events, including the terminating </s>


class NGramModel:
    """An immutable trained model: lookup tables plus metadata.

    logprobs maps full n-gram id tuples (any length 1..order) to natural-log
    conditional probabilities; backoffs maps context id tuples to natural-log
    backoff weights. Both are exposed read-only.
    """

    def __init__(
        self,
        order: int,
        tokens: Sequence[str],
        logprobs: Mapping[tuple[int, ...], float],
        backoffs: Mapping[tuple[int, ...], float] | None = None,
        *,
        train_token_count: int | None = None,
        discounts: Sequence[float] | None = None,
    ):
        if not 1 <= order <= _MAX_ORDER:
            raise ValueError(f"order must be in 1..{_MAX_ORDER}, got {order}")
        tokens = tuple(tokens)
        _check_vocabulary(tokens)
        vocab_size = len(tokens)
        lp = dict(logprobs)
        bo = dict(backoffs) if backoffs else {}
        for gram, value in lp.items():
            if not 1 <= len(gram) <= order:
                raise ValueError(f"n-gram {gram} longer than order {order}")
            if any(not 0 <= i < vocab_size for i in gram):
                raise ValueError(f"n-gram {gram} has an out-of-range token id")
            if not value <= 0.0 or math.isinf(value):
                raise ValueError(f"log-probability for {gram} must be finite and <= 0")
        for ctx, weight in bo.items():
            if not 0 <= len(ctx) <= order - 1:
                raise ValueError(f"backoff context {ctx} longer than order-1")
            if any(not 0 <= i < vocab_size for i in ctx):
                raise ValueError(f"backoff context {ctx} has an out-of-range token id")
            if not math.isfinite(weight):
                raise ValueError(f"backoff weight for {ctx} must be finite")
        _check_unigrams(vocab_size, lp)
        self._adopt(order, tokens, lp, bo, train_token_count, discounts)

    @classmethod
    def _trusted(
        cls,
        order: int,
        tokens: Sequence[str],
        logprobs: dict[tuple[int, ...], float],
        backoffs: dict[tuple[int, ...], float],
        train_token_count: int | None = None,
        discounts: Sequence[float] | None = None,
    ) -> "NGramModel":
        """Wrap tables that are valid by construction: no copy, no checks.

        The model takes ownership of both dicts; the caller must not keep
        mutating them.
        """
        model = cls.__new__(cls)
        model._adopt(order, tuple(tokens), logprobs, backoffs, train_token_count, discounts)
        return model

    def _adopt(
        self,
        order: int,
        tokens: tuple[str, ...],
        logprobs: dict[tuple[int, ...], float],
        backoffs: dict[tuple[int, ...], float],
        train_token_count: int | None,
        discounts: Sequence[float] | None,
    ) -> None:
        self.order = order
        self.id_to_token: tuple[str, ...] = tokens
        self.token_ids: Mapping[str, int] = MappingProxyType(
            {t: i for i, t in enumerate(tokens)}
        )
        self._logprobs = logprobs
        self._backoffs = backoffs
        self.logprobs: Mapping[tuple[int, ...], float] = MappingProxyType(logprobs)
        self.backoffs: Mapping[tuple[int, ...], float] = MappingProxyType(backoffs)
        self.train_token_count = train_token_count
        self.discounts = tuple(discounts) if discounts is not None else None

    # -- training ----------------------------------------------------------

    @classmethod
    def train(
        cls, corpus: Iterable[Sentence], order: int = 4, min_count: int = 2
    ) -> "NGramModel":
        """Estimate a model from an iterable of sentences.

        Tokens seen fewer than min_count times are masked to <unk>. The
        corpus iterable is materialized internally (two logical passes).
        """
        if not 1 <= order <= _MAX_ORDER:
            raise ValueError(f"order must be in 1..{_MAX_ORDER}, got {order}")
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")

        sentences: list[Sentence] = []
        freqs: Counter[str] = Counter()
        for sentence in corpus:
            sentences.append(tuple(sentence))
            freqs.update(sentences[-1])
        if not sentences:
            raise EmptyCorpus("cannot train on an empty corpus")

        reserved = set(RESERVED)
        surviving = sorted(
            t for t, c in freqs.items() if c >= min_count and t not in reserved
        )
        kept = set(surviving)
        any_masked = any(t not in kept for t in freqs)
        effective_types = len(surviving) + (1 if any_masked else 0)
        if effective_types < 2:
            raise DegenerateVocabulary(
                f"only {effective_types} token type(s) remain after masking "
                f"(min_count={min_count}); need at least 2"
            )
        id_to_token = list(RESERVED) + surviving
        ids = {t: i for i, t in enumerate(id_to_token)}

        def data_id(token: str) -> int:
            if token in reserved:
                return UNK_ID
            return ids.get(token, UNK_ID)

        # Highest order: raw event counts over <s>-padded, </s>-terminated rows.
        counts: list[Counter[tuple[int, ...]] | None] = [None] * (order + 1)
        top: Counter[tuple[int, ...]] = Counter()
        pad = (BOS_ID,) * (order - 1)
        token_total = 0
        for sentence in sentences:
            row = pad + tuple(data_id(t) for t in sentence) + (EOS_ID,)
            token_total += len(sentence)
            for i in range(order - 1, len(row)):
                top[row[i - order + 1 : i + 1]] += 1
        counts[order] = top

        # Lower orders: continuation counts (distinct left extensions).
        for k in range(order - 1, 0, -1):
            cont: Counter[tuple[int, ...]] = Counter()
            for gram in counts[k + 1]:
                cont[gram[1:]] += 1
            counts[k] = cont

        discounts = [0.0] * (order + 1)
        for k in range(1, order + 1):
            n1 = n2 = 0
            for value in counts[k].values():
                if value == 1:
                    n1 += 1
                elif value == 2:
                    n2 += 1
            discounts[k] = n1 / (n1 + 2 * n2) if n1 > 0 and n2 > 0 else _FALLBACK_DISCOUNT

        logprobs: dict[tuple[int, ...], float] = {}
        backoffs: dict[tuple[int, ...], float] = {}

        # Unigrams: interpolate with uniform over the predictable vocabulary.
        uni = counts[1]
        total = sum(uni.values())
        d1 = discounts[1]
        lam = d1 * len(uni) / total
        uniform = 1.0 / (len(id_to_token) - 1)  # everything but <s>
        for wid in range(len(id_to_token)):
            if wid == BOS_ID:
                continue
            c = uni.get((wid,), 0)
            p = max(c - d1, 0.0) / total + lam * uniform
            logprobs[(wid,)] = math.log(p)

        # Higher orders, bottom-up; the shortened-context probability of any
        # seen n-gram is itself a seen (k-1)-gram by construction.
        for k in range(2, order + 1):
            level = counts[k]
            dk = discounts[k]
            ctx_total: dict[tuple[int, ...], int] = {}
            ctx_types: dict[tuple[int, ...], int] = {}
            for gram, c in level.items():
                h = gram[:-1]
                ctx_total[h] = ctx_total.get(h, 0) + c
                ctx_types[h] = ctx_types.get(h, 0) + 1
            for h in sorted(ctx_total):
                backoffs[h] = math.log(dk * ctx_types[h] / ctx_total[h])
            for gram in sorted(level):
                h = gram[:-1]
                lower = math.exp(logprobs[gram[1:]])
                p = (
                    max(level[gram] - dk, 0.0) / ctx_total[h]
                    + dk * ctx_types[h] / ctx_total[h] * lower
                )
                logprobs[gram] = math.log(p)

        # Every table above is valid by construction (ids from the vocabulary,
        # probabilities and weights finite and <= 0); the property tests check
        # that trained models pass the public constructor's validation.
        return cls._trusted(
            order,
            id_to_token,
            logprobs,
            backoffs,
            train_token_count=token_total,
            discounts=discounts[1:],
        )

    # -- scoring -----------------------------------------------------------

    def _data_id(self, token: str) -> int:
        if token in (UNK, BOS, EOS):
            return UNK_ID
        return self.token_ids.get(token, UNK_ID)

    def _event_logprob(self, context: tuple[int, ...], wid: int) -> float:
        acc = 0.0
        while True:
            hit = self._logprobs.get(context + (wid,))
            if hit is not None:
                return acc + hit
            weight = self._backoffs.get(context)
            if weight is not None:
                acc += weight
            context = context[1:]

    def logprob(self, sentence: Sequence[str]) -> LmScore:
        """Total log-probability of a sentence plus its terminating </s>."""
        history = (BOS_ID,) * (self.order - 1)
        total = 0.0
        count = 0
        for token in sentence:
            wid = self._data_id(token)
            total += self._event_logprob(history, wid)
            count += 1
            if history:
                history = history[1:] + (wid,)
        total += self._event_logprob(history, EOS_ID)
        return LmScore(total, count + 1)

    def logprob_word(self, context: Sequence[str], word: str) -> float:
        """Conditional log-probability of one word after a token context.

        Unlike sentence scoring this is a model-internal query: reserved
        symbols in the arguments denote themselves, so p(w | "<s>") is
        addressable. Asking for "<s>" as the predicted word returns -inf.
        """
        if word == BOS:
            return -math.inf
        ids = tuple(
            self.token_ids.get(t, UNK_ID) for t in context[max(0, len(context) - self.order + 1) :]
        )
        wid = self.token_ids.get(word, UNK_ID)
        return self._event_logprob(ids, wid)

    # -- serialization -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the model in the bit-exact little-endian binary layout."""
        from .fileio import atomic_write_bytes

        by_len: dict[int, set[tuple[int, ...]]] = {k: set() for k in range(1, self.order + 1)}
        for gram in self._logprobs:
            by_len[len(gram)].add(gram)
        for ctx in self._backoffs:
            if ctx:
                by_len[len(ctx)].add(ctx)
        with atomic_write_bytes(path) as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack("<HH", MODEL_FORMAT_VERSION, self.order))
            handle.write(struct.pack("<I", len(self.id_to_token)))
            for token in self.id_to_token:
                raw = token.encode("utf-8")
                handle.write(struct.pack("<I", len(raw)))
                handle.write(raw)
            for k in range(1, self.order + 1):
                rows = sorted(by_len[k])
                row_fmt = struct.Struct(f"<{k}Idd")
                handle.write(struct.pack("<I", len(rows)))
                for gram in rows:
                    handle.write(
                        row_fmt.pack(
                            *gram,
                            self._logprobs.get(gram, _NO_PROB),
                            self._backoffs.get(gram, 0.0),
                        )
                    )

    @classmethod
    def load(cls, path: str) -> "NGramModel":
        """Read a model saved by save(); scoring is reproduced exactly.

        The file is read whole and each table decoded in one pass that also
        checks it. Loading raises FormatError on a bad magic or version, an
        order outside 1..6, a token that is not UTF-8, a vocabulary that does
        not start with the reserved symbols or repeats a token, a token id
        outside the vocabulary, a log-probability that is NaN or above 0, a
        backoff weight that is NaN or infinite or sits on a full-order row, a
        missing unigram, probability mass on "<s>", and on truncation or
        trailing bytes. Every length and count is checked against the bytes
        left before anything is sliced.

        Training metadata (token count, discounts) is not part of the binary
        layout, so loaded models carry None there.
        """
        with open(path, "rb") as handle:
            data = memoryview(handle.read())
        pos = 0

        def take(n: int, what: str) -> memoryview:
            nonlocal pos
            if n > len(data) - pos:
                raise FormatError(f"{path}: truncated while reading {what}")
            pos += n
            return data[pos - n : pos]

        def count(what: str) -> int:
            return _U32.unpack(take(4, what))[0]

        if take(4, "magic") != _MAGIC:
            raise FormatError(f"{path}: bad magic, not a model file")
        version, order = _VERSION_ORDER.unpack(take(4, "header"))
        if version != MODEL_FORMAT_VERSION:
            raise FormatError(
                f"{path}: format version {version} not supported "
                f"(this build reads version {MODEL_FORMAT_VERSION})"
            )
        if not 1 <= order <= _MAX_ORDER:
            raise FormatError(f"{path}: order {order} out of range 1..{_MAX_ORDER}")
        vocab_size = count("vocabulary size")
        if vocab_size > (len(data) - pos) // 4:  # each token has a 4-byte length
            raise FormatError(f"{path}: truncated while reading the vocabulary")
        tokens = []
        for i in range(vocab_size):
            raw = take(count(f"token {i} length"), f"token {i}")
            try:
                tokens.append(str(raw, "utf-8"))
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: token {i} is not valid UTF-8") from exc
        try:
            _check_vocabulary(tokens)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc

        no_prob, inf = _NO_PROB, math.inf  # locals: the row loop below is the hot path
        logprobs: dict[tuple[int, ...], float] = {}
        backoffs: dict[tuple[int, ...], float] = {}
        for k in range(1, order + 1):
            row_fmt = struct.Struct(f"<{k}Idd")
            n_rows = count(f"order-{k} row count")
            table = take(n_rows * row_fmt.size, f"order-{k} table")
            full_order = k == order
            for fields in row_fmt.iter_unpack(table):
                gram = fields[:k]
                if max(gram) >= vocab_size:
                    raise FormatError(f"{path}: token id out of range in order-{k} table")
                logprob = fields[k]
                if logprob != no_prob:
                    if not logprob <= 0.0:
                        raise FormatError(
                            f"{path}: log-probability {logprob} for {gram} is not <= 0"
                        )
                    logprobs[gram] = logprob
                backoff = fields[-1]
                if backoff != 0.0:
                    if full_order:
                        raise FormatError(f"{path}: backoff weight on full-order row {gram}")
                    if not -inf < backoff < inf:
                        raise FormatError(
                            f"{path}: backoff weight {backoff} for {gram} is not finite"
                        )
                    backoffs[gram] = backoff
        if pos != len(data):
            raise FormatError(f"{path}: trailing bytes after the last table")
        try:
            _check_unigrams(vocab_size, logprobs)
        except ValueError as exc:
            raise FormatError(f"{path}: inconsistent tables: {exc}") from exc
        return cls._trusted(order, tokens, logprobs, backoffs)


def _check_vocabulary(tokens: Sequence[str]) -> None:
    if tuple(tokens[:3]) != RESERVED:
        raise ValueError(f"vocabulary must start with {RESERVED}")
    if len(set(tokens)) != len(tokens):
        raise ValueError("duplicate token in vocabulary")


def _check_unigrams(vocab_size: int, logprobs: Mapping[tuple[int, ...], float]) -> None:
    for wid in range(vocab_size):
        if wid != BOS_ID and (wid,) not in logprobs:
            raise ValueError(f"missing unigram entry for token id {wid}")
    if (BOS_ID,) in logprobs:
        raise ValueError(f"{BOS} must not carry probability mass")


def perplexity(model: NGramModel, corpus: Iterable[Sentence]) -> float:
    """exp of the mean negative log-probability per scored event."""
    total = 0.0
    events = 0
    for sentence in corpus:
        score = model.logprob(sentence)
        total += score.total_logprob
        events += score.token_count
    if events == 0:
        raise EmptyCorpus("cannot compute perplexity over an empty corpus")
    return math.exp(-total / events)
