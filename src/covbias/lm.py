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

In memory an n-gram of k ids is one int whose base-2**32 digits are the ids,
oldest most significant: g0 << 32*(k-1) | ... | g(k-1). There is one dict per
length, _lp[k] for n-grams of k = 1..order ids and _bo[k] for contexts of
k = 1..order-1 ids (keys of different lengths collide, since id 0 is
"<unk>"). Numeric order of same-length keys is the order of their id tuples,
which is the row order of the file. The scorer keeps the last m context ids
as one int H and looks the event w up as _lp[m+1][H << 32 | w]; on a miss it
adds _bo[m][H] if present, drops the oldest id (H &= 2**(32*(m-1)) - 1) and
tries again with m-1.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, compress, repeat, starmap
from operator import ge, ne
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
# _MASKS[m] keeps the last m ids of a packed key
_MASKS = tuple((1 << 32 * m) - 1 for m in range(_MAX_ORDER + 1))

# Log-probability placeholder for rows that exist only to carry a context's
# backoff weight (real event probabilities are always finite and negative).
_NO_PROB = -math.inf

# Table rows decoded per step of a load; bounds the buffers a load holds.
_CHUNK_ROWS = 4096

_Tables = tuple[dict[int, float], ...]


class LmScore(NamedTuple):
    total_logprob: float
    token_count: int  # scored events, including the terminating </s>


class NGramModel:
    """An immutable trained model: lookup tables plus metadata.

    logprobs maps full n-gram id tuples (any length 1..order) to natural-log
    conditional probabilities; backoffs maps context id tuples (length
    1..order-1) to natural-log backoff weights. Both are read-only views
    decoded from the packed tables on every access, at O(rows) per access.
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
        lp, bo = _empty_tables(order)
        for gram, value in logprobs.items():
            if not 1 <= len(gram) <= order:
                raise ValueError(f"n-gram {gram} longer than order {order}")
            if any(not 0 <= i < vocab_size for i in gram):
                raise ValueError(f"n-gram {gram} has an out-of-range token id")
            if not value <= 0.0 or math.isinf(value):
                raise ValueError(f"log-probability for {gram} must be finite and <= 0")
            lp[len(gram)][_pack(gram)] = value
        for ctx, weight in (backoffs or {}).items():
            if not 1 <= len(ctx) <= order - 1:
                raise ValueError(f"backoff context {ctx} must have 1..order-1 ids")
            if any(not 0 <= i < vocab_size for i in ctx):
                raise ValueError(f"backoff context {ctx} has an out-of-range token id")
            if not math.isfinite(weight):
                raise ValueError(f"backoff weight for {ctx} must be finite")
            bo[len(ctx)][_pack(ctx)] = weight
        _check_unigrams(vocab_size, lp[1])
        self._adopt(order, tokens, lp, bo, train_token_count, discounts)

    @classmethod
    def _trusted(
        cls,
        order: int,
        tokens: Sequence[str],
        lp: _Tables,
        bo: _Tables,
        train_token_count: int | None = None,
        discounts: Sequence[float] | None = None,
    ) -> "NGramModel":
        """Wrap packed tables that are valid by construction: no copy, no checks.

        lp[k] and bo[k] hold the k-id keys (see the module docstring); lp[0],
        bo[0] and bo[order] are empty. The model takes ownership of the dicts;
        the caller must not keep mutating them.
        """
        model = cls.__new__(cls)
        model._adopt(order, tuple(tokens), lp, bo, train_token_count, discounts)
        return model

    def _adopt(
        self,
        order: int,
        tokens: tuple[str, ...],
        lp: _Tables,
        bo: _Tables,
        train_token_count: int | None,
        discounts: Sequence[float] | None,
    ) -> None:
        self.order = order
        self.id_to_token: tuple[str, ...] = tokens
        self._ids = {t: i for i, t in enumerate(tokens)}
        self.token_ids: Mapping[str, int] = MappingProxyType(self._ids)
        # the scorer's back-off steps, from the longest context (m = order-1) down
        self._levels = tuple(
            (lp[m + 1].get, bo[m].get, _MASKS[max(m - 1, 0)]) for m in range(order - 1, -1, -1)
        )
        self._start = _pack((BOS_ID,) * (order - 1))  # the <s> padding as a history
        self._lp = lp
        self._bo = bo
        self.train_token_count = train_token_count
        self.discounts = tuple(discounts) if discounts is not None else None

    @property
    def logprobs(self) -> Mapping[tuple[int, ...], float]:
        return MappingProxyType(_decode(self._lp))

    @property
    def backoffs(self) -> Mapping[tuple[int, ...], float]:
        return MappingProxyType(_decode(self._bo))

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
        data_ids = {t: i for i, t in enumerate(surviving, len(RESERVED))}

        # Highest order: raw event counts over <s>-padded, </s>-terminated
        # rows, each event's n-gram packed as it rolls over the row.
        counts: list[Counter[int]] = [Counter() for _ in range(order + 1)]
        top = counts[order]
        start, keep = _pack((BOS_ID,) * (order - 1)), _MASKS[order - 1]
        token_total = 0
        for sentence in sentences:
            token_total += len(sentence)
            history = start
            for wid in chain(map(data_ids.get, sentence, repeat(UNK_ID)), (EOS_ID,)):
                gram = history << 32 | wid
                top[gram] += 1
                history = gram & keep

        # Lower orders: continuation counts (distinct left extensions).
        for k in range(order - 1, 0, -1):
            cont = counts[k]
            keep = _MASKS[k]
            for gram in counts[k + 1]:
                cont[gram & keep] += 1

        discounts = [0.0] * (order + 1)
        for k in range(1, order + 1):
            n1 = n2 = 0
            for value in counts[k].values():
                if value == 1:
                    n1 += 1
                elif value == 2:
                    n2 += 1
            discounts[k] = n1 / (n1 + 2 * n2) if n1 > 0 and n2 > 0 else _FALLBACK_DISCOUNT

        logprobs, backoffs = _empty_tables(order)

        # Unigrams: interpolate with uniform over the predictable vocabulary.
        uni = counts[1]
        total = sum(uni.values())
        d1 = discounts[1]
        lam = d1 * len(uni) / total
        uniform = 1.0 / (len(id_to_token) - 1)  # everything but <s>
        for wid in range(len(id_to_token)):
            if wid == BOS_ID:
                continue
            c = uni.get(wid, 0)
            p = max(c - d1, 0.0) / total + lam * uniform
            logprobs[1][wid] = math.log(p)

        # Higher orders, bottom-up; the shortened-context probability of any
        # seen n-gram is itself a seen (k-1)-gram by construction.
        for k in range(2, order + 1):
            level = counts[k]
            dk = discounts[k]
            ctx_total: dict[int, int] = {}
            ctx_types: dict[int, int] = {}
            for gram, c in level.items():
                h = gram >> 32
                ctx_total[h] = ctx_total.get(h, 0) + c
                ctx_types[h] = ctx_types.get(h, 0) + 1
            weights = backoffs[k - 1]
            for h, t in ctx_total.items():
                weights[h] = math.log(dk * ctx_types[h] / t)
            table, lower_table, keep = logprobs[k], logprobs[k - 1], _MASKS[k - 1]
            for gram, c in level.items():
                h = gram >> 32
                lower = math.exp(lower_table[gram & keep])
                p = (
                    max(c - dk, 0.0) / ctx_total[h]
                    + dk * ctx_types[h] / ctx_total[h] * lower
                )
                table[gram] = math.log(p)

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

    def logprob(self, sentence: Sequence[str]) -> LmScore:
        """Total log-probability of a sentence plus its terminating </s>."""
        levels = self._levels
        keep = _MASKS[self.order - 1]
        history = self._start
        ids = self._ids
        total = 0.0
        for token in sentence:
            wid = ids.get(token, UNK_ID)
            if wid <= EOS_ID:  # reserved spellings in data are masked
                wid = UNK_ID
            total += _walk(levels, history, wid)
            history = (history << 32 | wid) & keep
        total += _walk(levels, history, EOS_ID)
        return LmScore(total, len(sentence) + 1)

    def logprob_word(self, context: Sequence[str], word: str) -> float:
        """Conditional log-probability of one word after a token context.

        Unlike sentence scoring this is a model-internal query: reserved
        symbols in the arguments denote themselves, so p(w | "<s>") is
        addressable. Asking for "<s>" as the predicted word returns -inf.
        """
        if word == BOS:
            return -math.inf
        ids = [self._ids.get(t, UNK_ID) for t in context[max(0, len(context) - self.order + 1) :]]
        wid = self._ids.get(word, UNK_ID)
        return _walk(self._levels[self.order - 1 - len(ids) :], _pack(ids), wid)

    # -- serialization -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the model in the bit-exact little-endian binary layout."""
        from .fileio import atomic_write_bytes

        with atomic_write_bytes(path) as handle:
            handle.write(_MAGIC)
            handle.write(_VERSION_ORDER.pack(MODEL_FORMAT_VERSION, self.order))
            handle.write(_U32.pack(len(self.id_to_token)))
            for token in self.id_to_token:
                raw = token.encode("utf-8")
                handle.write(_U32.pack(len(raw)))
                handle.write(raw)
            for k in range(1, self.order + 1):
                lp, bo = self._lp[k], self._bo[k]
                keys = sorted(lp.keys() | bo.keys())
                rows = zip(
                    _grams(keys, k),
                    map(lp.get, keys, repeat(_NO_PROB)),
                    map(bo.get, keys, repeat(0.0)),
                )
                handle.write(_U32.pack(len(keys)))
                handle.write(b"".join(starmap(struct.Struct(f"<{4 * k}sdd").pack, rows)))

    @classmethod
    def load(cls, path: str) -> "NGramModel":
        """Read a model saved by save(); scoring is reproduced exactly.

        Each table is read _CHUNK_ROWS rows at a time, and each chunk checked
        column by column in C before it is decoded. Loading raises
        FormatError on a bad magic or version, an order outside 1..6, a token
        that is not UTF-8, a vocabulary that does not start with the reserved
        symbols or repeats a token, a token id outside the vocabulary, a
        log-probability that is NaN or above 0, a backoff weight that is NaN
        or infinite or sits on a full-order row, a missing unigram,
        probability mass on "<s>", and on truncation or trailing bytes. Every
        length and count is checked against the bytes left before anything
        is read.

        Training metadata (token count, discounts) is not part of the binary
        layout, so loaded models carry None there.
        """
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            pos = 0

            def room(n: int, what: str) -> int:
                nonlocal pos
                if n > size - pos:
                    raise FormatError(f"{path}: truncated while reading {what}")
                pos += n
                return n

            def take(n: int, what: str) -> bytes:
                return handle.read(room(n, what))

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
            if vocab_size > (size - pos) // 4:  # each token has a 4-byte length
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

            lp, bo = _empty_tables(order)
            for k in range(1, order + 1):
                n_rows = count(f"order-{k} row count")
                room(n_rows * (4 * k + 16), f"order-{k} table")
                for first in range(0, n_rows, _CHUNK_ROWS):
                    table = array("I")  # each row's ids, then its two doubles as four words
                    table.fromfile(handle, min(_CHUNK_ROWS, n_rows - first) * (k + 4))
                    logprobs, weights = _columns(table, k)
                    _check_table(path, table, k, order, vocab_size, logprobs, weights)
                    keys = _keys(table, k)
                    seen = map(ne, logprobs, repeat(_NO_PROB))
                    lp[k].update(compress(zip(keys, logprobs), seen))
                    if k < order:
                        bo[k].update(compress(zip(keys, weights), weights))
            if pos != size:
                raise FormatError(f"{path}: trailing bytes after the last table")
            try:
                _check_unigrams(vocab_size, lp[1])
            except ValueError as exc:
                raise FormatError(f"{path}: inconsistent tables: {exc}") from exc
            return cls._trusted(order, tokens, lp, bo)


def _walk(levels: Sequence[tuple], history: int, wid: int) -> float:
    """log p(wid | history), backing off one level (one context id) per miss.

    levels[i] is (_lp[m+1].get, _bo[m].get, the mask that keeps m-1 ids) for
    a history of m ids. Every id but "<s>" has a unigram, so only "<s>" falls
    through all levels, with probability 0.
    """
    acc = 0.0
    for lp_get, bo_get, keep in levels:
        hit = lp_get(history << 32 | wid)
        if hit is not None:
            return acc + hit
        weight = bo_get(history)
        if weight is not None:
            acc += weight
        history &= keep
    return -math.inf


def _empty_tables(order: int) -> tuple[_Tables, _Tables]:
    """Per-length logprob and backoff dicts, indexed 0..order."""
    return (
        tuple({} for _ in range(order + 1)),
        tuple({} for _ in range(order + 1)),
    )


def _columns(table: array, k: int) -> tuple[array, array]:
    """The log-probability and backoff columns of an order-k table."""
    values = array("d")
    pairs = struct.Struct(f"{4 * k}x16s").iter_unpack(table)
    values.frombytes(b"".join(chain.from_iterable(pairs)))
    if sys.byteorder == "big":
        values.byteswap()
    return values[::2], values[1::2]


def _check_table(
    path: str,
    table: array,
    k: int,
    order: int,
    vocab_size: int,
    logprobs: array,
    weights: array,
) -> None:
    """Check an order-k table one column at a time; find the row only to report it."""

    def fault(bad: Iterable[bool], problem: str) -> FormatError:
        rows = struct.Struct(f"<{k}Idd").iter_unpack(table)
        *gram, logprob, backoff = next(compress(rows, bad))
        return FormatError(f"{path}: " + problem.format(gram=tuple(gram), lp=logprob, bo=backoff))

    words = table
    if sys.byteorder == "big":
        words = array("I", table)
        words.byteswap()
    columns = memoryview(words)
    if max(max(columns[j :: k + 4], default=0) for j in range(k)) >= vocab_size:
        bad = (max(gram) >= vocab_size for gram in struct.Struct(f"<{k}I16x").iter_unpack(table))
        raise fault(bad, f"token id out of range in order-{k} table, row {{gram}}")
    if not all(map(ge, repeat(0.0), logprobs)):  # -inf marks a backoff-only row
        raise fault((not x <= 0.0 for x in logprobs), "log-probability {lp} for {gram} is not <= 0")
    if k == order and any(weights):
        raise fault(weights, "backoff weight on full-order row {gram}")
    if not all(map(math.isfinite, weights)):
        raise fault(
            (not math.isfinite(x) for x in weights), "backoff weight {bo} for {gram} is not finite"
        )


def _keys(table: array, k: int) -> list[int]:
    """The packed key of every row of an order-k table; byte-swaps the table."""
    table.byteswap()  # little-endian ids -> big-endian digits
    grams = chain.from_iterable(struct.Struct(f"{4 * k}s16x").iter_unpack(table))
    return list(map(int.from_bytes, grams, repeat("big")))


def _grams(keys: Sequence[int], k: int) -> Iterable[bytes]:
    """Each packed k-id key as the little-endian ids of its file row."""
    ids = array("I", b"".join(map(int.to_bytes, keys, repeat(4 * k), repeat("big"))))
    ids.byteswap()  # big-endian digits -> little-endian ids
    return chain.from_iterable(struct.Struct(f"{4 * k}s").iter_unpack(ids))


def _pack(ids: Iterable[int]) -> int:
    """The packed key of an id sequence, oldest id most significant."""
    key = 0
    for i in ids:
        key = key << 32 | i
    return key


def _decode(tables: _Tables) -> dict[tuple[int, ...], float]:
    """Id-tuple keyed copy of per-length packed tables."""
    out: dict[tuple[int, ...], float] = {}
    for k, table in enumerate(tables):
        if table:
            unpack = struct.Struct(f">{k}I").unpack
            grams = map(unpack, map(int.to_bytes, table, repeat(4 * k), repeat("big")))
            out.update(zip(grams, table.values()))
    return out


def _check_vocabulary(tokens: Sequence[str]) -> None:
    if tuple(tokens[:3]) != RESERVED:
        raise ValueError(f"vocabulary must start with {RESERVED}")
    if len(set(tokens)) != len(tokens):
        raise ValueError("duplicate token in vocabulary")


def _check_unigrams(vocab_size: int, unigrams: Mapping[int, float]) -> None:
    """Every id but <s> has a unigram; all keys are known to be ids < vocab_size."""
    if BOS_ID in unigrams:
        raise ValueError(f"{BOS} must not carry probability mass")
    if len(unigrams) != vocab_size - 1:
        missing = next(i for i in range(vocab_size) if i != BOS_ID and i not in unigrams)
        raise ValueError(f"missing unigram entry for token id {missing}")


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
