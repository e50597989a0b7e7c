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

In memory an n-gram of k ids is one int whose base-V digits are the ids, V
the vocabulary size, oldest most significant: ((g0*V + g1)*V + ...)*V + g(k-1).
There is one dict per length, _lp[k] for n-grams of k = 1..order ids and
_bo[k] for contexts of k = 1..order-1 ids (keys of different lengths
collide). Numeric order of same-length keys is the order of their id tuples.
The scorer keeps the last m context ids as one int H and looks the event w up
as _lp[m+1][H*V + w]; on a miss it adds _bo[m][H] if present, drops the
oldest id (H %= V**(m-1)) and tries again with m-1.

The file (format 2, little-endian) holds the same keys. After the magic
"NGLM", u16 version, u16 order, u32 V and each token as a u32 length and its
UTF-8 bytes come the training metadata: u8 flags (1: token count, 2:
discounts), the u64 token count and one f64 discount per order, zero where
the flag is clear. Then for k = 1..order come the order-k events table and,
for k < order, the order-k contexts table. A table is a u32 row count, a
column of strictly increasing keys and a column of f64 values
(log-probabilities or backoff weights). Keys are u64 when V**k <= 2**64 and
otherwise big-endian, in the fewest bytes that hold V**k - 1.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, compress, count, islice, repeat
from operator import floordiv, ge, mod
from types import MappingProxyType
from typing import TYPE_CHECKING, BinaryIO, NamedTuple

from . import MODEL_FORMAT_VERSION
from .errors import DataError, FormatError

if TYPE_CHECKING:
    from .corpus import Sentence

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"
RESERVED = (UNK, BOS, EOS)
UNK_ID, BOS_ID, EOS_ID = 0, 1, 2

_MAGIC = b"NGLM"
_MAX_ORDER = 6
_FALLBACK_DISCOUNT = 0.75
_U32 = struct.Struct("<I")
_VERSION_ORDER = struct.Struct("<HH")
_META = struct.Struct("<BQ")  # flags, training token count; the discounts follow
_HAS_COUNT, _HAS_DISCOUNTS = 1, 2
_SWAP = sys.byteorder == "big"  # file columns are little-endian

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
        """Raise ValueError on a bad-length or unknown-id n-gram, or as _check_model does."""
        _check_order(order)
        tokens = tuple(tokens)
        vocab_size = len(tokens)
        lp, bo = _empty_tables(order)
        for tables, grams, top, what in (
            (lp, logprobs, order, "n-gram"),
            (bo, backoffs or {}, order - 1, "backoff context"),
        ):
            for gram, value in grams.items():
                if not 1 <= len(gram) <= top:
                    raise ValueError(f"{what} {gram} does not fit order {order}")
                if any(not 0 <= i < vocab_size for i in gram):
                    raise ValueError(f"{what} {gram}: token id out of range")
                tables[len(gram)][_pack(gram, vocab_size)] = value
        _check_model(tokens, lp, bo, train_token_count, discounts)
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
        base = len(tokens)
        # the scorer's back-off steps, from the longest context (m = order-1) down
        self._levels = tuple(
            (lp[m + 1].get, bo[m].get, base ** max(m - 1, 0)) for m in range(order - 1, -1, -1)
        )
        self._start = _pack((BOS_ID,) * (order - 1), base)  # the <s> padding as a history
        self._lp = lp
        self._bo = bo
        self.train_token_count = train_token_count
        self.discounts = tuple(discounts) if discounts is not None else None

    @property
    def logprobs(self) -> Mapping[tuple[int, ...], float]:
        return MappingProxyType(_decode(self._lp, len(self.id_to_token)))

    @property
    def backoffs(self) -> Mapping[tuple[int, ...], float]:
        return MappingProxyType(_decode(self._bo, len(self.id_to_token)))

    # -- training ----------------------------------------------------------

    @classmethod
    def train(
        cls, corpus: Iterable[Sentence], order: int = 4, min_count: int = 2
    ) -> "NGramModel":
        """Estimate a model from an iterable of sentences.

        Tokens seen fewer than min_count times are masked to <unk>. The
        corpus iterable is materialized internally (two logical passes).
        """
        _check_order(order)
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")

        sentences: list[Sentence] = []
        freqs: Counter[str] = Counter()
        for sentence in corpus:
            sentences.append(tuple(sentence))
            freqs.update(sentences[-1])
        if not sentences:
            raise DataError("cannot train on an empty corpus")

        reserved = set(RESERVED)
        surviving = sorted(
            t for t, c in freqs.items() if c >= min_count and t not in reserved
        )
        kept = set(surviving)
        any_masked = any(t not in kept for t in freqs)
        effective_types = len(surviving) + (1 if any_masked else 0)
        if effective_types < 2:
            raise DataError(
                f"only {effective_types} token type(s) remain after masking "
                f"(min_count={min_count}); need at least 2"
            )
        id_to_token = list(RESERVED) + surviving
        data_ids = {t: i for i, t in enumerate(surviving, len(RESERVED))}
        base = len(id_to_token)

        # Highest order: raw event counts over <s>-padded, </s>-terminated
        # rows, each event's n-gram packed as it rolls over the row.
        counts: list[Counter[int]] = [Counter() for _ in range(order + 1)]
        top = counts[order]
        start, keep = _pack((BOS_ID,) * (order - 1), base), base ** (order - 1)
        token_total = 0
        for sentence in sentences:
            token_total += len(sentence)
            history = start
            for wid in chain(map(data_ids.get, sentence, repeat(UNK_ID)), (EOS_ID,)):
                gram = history * base + wid
                top[gram] += 1
                history = gram % keep

        # Lower orders: continuation counts (distinct left extensions).
        for k in range(order - 1, 0, -1):
            cont = counts[k]
            keep = base**k
            for gram in counts[k + 1]:
                cont[gram % keep] += 1

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
                h = gram // base
                ctx_total[h] = ctx_total.get(h, 0) + c
                ctx_types[h] = ctx_types.get(h, 0) + 1
            weights = backoffs[k - 1]
            for h, t in ctx_total.items():
                weights[h] = math.log(dk * ctx_types[h] / t)
            table, lower_table, keep = logprobs[k], logprobs[k - 1], base ** (k - 1)
            for gram, c in level.items():
                h = gram // base
                lower = math.exp(lower_table[gram % keep])
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
        base = len(self.id_to_token)
        keep = base ** (self.order - 1)
        history = self._start
        ids = self._ids
        total = 0.0
        for token in sentence:
            wid = ids.get(token, UNK_ID)
            if wid <= EOS_ID:  # reserved spellings in data are masked
                wid = UNK_ID
            total += _walk(levels, base, history, wid)
            history = (history * base + wid) % keep
        total += _walk(levels, base, history, EOS_ID)
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
        base = len(self.id_to_token)
        return _walk(self._levels[self.order - 1 - len(ids) :], base, _pack(ids, base), wid)

    # -- serialization -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the model as a format-2 file (see the module docstring).

        The bytes depend only on the model: save -> load -> save reproduces
        the file byte for byte.
        """
        from .fileio import atomic_write_bytes

        base = len(self.id_to_token)
        flags = (self.train_token_count is not None) * _HAS_COUNT
        flags |= (self.discounts is not None) * _HAS_DISCOUNTS
        with atomic_write_bytes(path) as handle:
            handle.write(_MAGIC + _VERSION_ORDER.pack(MODEL_FORMAT_VERSION, self.order))
            handle.write(_U32.pack(base))
            for token in self.id_to_token:
                raw = token.encode("utf-8")
                handle.write(_U32.pack(len(raw)) + raw)
            handle.write(_META.pack(flags, self.train_token_count or 0))
            handle.write(struct.pack(f"<{self.order}d", *self.discounts or repeat(0.0, self.order)))
            for k in range(1, self.order + 1):
                for table in (self._lp[k], self._bo[k]) if k < self.order else (self._lp[k],):
                    keys = sorted(table)
                    handle.write(_U32.pack(len(keys)))
                    handle.write(_key_column(keys, base**k))
                    handle.write(_little(array("d", map(table.__getitem__, keys))))

    @classmethod
    def load(cls, path: str) -> "NGramModel":
        """Read a model file of the current format; scoring is reproduced exactly.

        Every length and count is checked against the bytes left before
        anything is read. FormatError names the file and a framing fault: a
        bad magic or version, a token that is not UTF-8, a table whose keys
        repeat, go back or name an id outside the vocabulary, truncation,
        trailing bytes, unknown metadata flags or metadata set but flagged
        absent. The order, the vocabulary and then the model must pass
        _check_order, _check_vocabulary and _check_model.
        """
        with open(path, "rb") as handle:
            reader = _Reader(handle, path)
            if reader.take(4, "magic") != _MAGIC:
                raise reader.fail("bad magic, not a model file")
            version, order = _VERSION_ORDER.unpack(reader.take(4, "header"))
            if version != MODEL_FORMAT_VERSION:
                raise reader.fail(
                    f"format version {version} not supported "
                    f"(this build reads version {MODEL_FORMAT_VERSION})"
                )
            try:
                _check_order(order)
                base = reader.count("vocabulary size")
                if base > reader.left // 4:  # each token has a 4-byte length
                    raise reader.fail("truncated while reading the vocabulary")
                tokens = []
                read, unpack, left = reader.handle.read, _U32.unpack, reader.left
                for i in range(base):
                    if left < 4:
                        raise reader.fail(f"truncated while reading token {i} length")
                    (size,) = unpack(read(4))
                    left -= 4 + size
                    if left < 0:
                        raise reader.fail(f"truncated while reading token {i}")
                    try:
                        tokens.append(str(read(size), "utf-8"))
                    except UnicodeDecodeError as exc:
                        raise reader.fail(f"token {i} is not valid UTF-8") from exc
                reader.left = left
                _check_vocabulary(tokens)
                reader.base = base
                lp, bo = _empty_tables(order)
                meta = _read_v2(reader, order, lp, bo)
                if reader.left:
                    raise reader.fail("trailing bytes after the last table")
                _check_model(tokens, lp, bo, *meta)
            except ValueError as exc:
                raise reader.fail(str(exc)) from exc
        return cls._trusted(order, tokens, lp, bo, *meta)


def _walk(levels: Sequence[tuple], base: int, history: int, wid: int) -> float:
    """log p(wid | history), backing off one level (one context id) per miss.

    levels[i] is (_lp[m+1].get, _bo[m].get, base**(m-1)) for a history of m
    ids; history % base**(m-1) keeps its last m-1 ids. Every id but "<s>" has
    a unigram, so only "<s>" falls through all levels, with probability 0.
    """
    acc = 0.0
    for lp_get, bo_get, drop in levels:
        hit = lp_get(history * base + wid)
        if hit is not None:
            return acc + hit
        weight = bo_get(history)
        if weight is not None:
            acc += weight
        history %= drop
    return -math.inf


def _empty_tables(order: int) -> tuple[_Tables, _Tables]:
    """Per-length logprob and backoff dicts, indexed 0..order."""
    return (
        tuple({} for _ in range(order + 1)),
        tuple({} for _ in range(order + 1)),
    )


class _Reader:
    """A model file read front to back; every length is checked against the bytes left."""

    def __init__(self, handle: BinaryIO, path: str):
        self.handle = handle
        self.path = path
        self.left = os.fstat(handle.fileno()).st_size
        self.base = 0  # the vocabulary size, once read

    def fail(self, problem: str) -> FormatError:
        return FormatError(f"{self.path}: {problem}")

    def room(self, n: int, what: str) -> int:
        if n > self.left:
            raise self.fail(f"truncated while reading {what}")
        self.left -= n
        return n

    def take(self, n: int, what: str) -> bytes:
        return self.handle.read(self.room(n, what))

    def count(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def column(self, typecode: str, n: int, what: str) -> list:
        """n little-endian items of an array typecode, as a list."""
        items = array(typecode)
        items.fromfile(self.handle, self.room(n * items.itemsize, what) // items.itemsize)
        return _little(items).tolist()


def _read_v2(
    reader: _Reader, order: int, lp: _Tables, bo: _Tables
) -> tuple[int | None, tuple[float, ...] | None]:
    """Fill lp and bo from format-2 tables; return (token count, discounts)."""
    flags, token_count = _META.unpack(reader.take(_META.size, "metadata"))
    raw = reader.take(8 * order, "discounts")
    if flags & ~(_HAS_COUNT | _HAS_DISCOUNTS):
        raise reader.fail(f"unknown metadata flags {flags}")
    if not flags & _HAS_COUNT and token_count:
        raise reader.fail("token count set but flagged absent")
    if not flags & _HAS_DISCOUNTS and any(raw):
        raise reader.fail("discounts set but flagged absent")
    for k in range(1, order + 1):
        _read_table(reader, k, "events", lp[k])
        if k < order:
            _read_table(reader, k, "contexts", bo[k])
    return (
        token_count if flags & _HAS_COUNT else None,
        struct.unpack(f"<{order}d", raw) if flags & _HAS_DISCOUNTS else None,
    )


def _read_table(reader: _Reader, k: int, what: str, into: dict[int, float]) -> None:
    """Read one format-2 table, "events" or "contexts", into an empty dict.

    Only what the file alone knows is checked here, one C-level pass each:
    keys strictly increase when the dict holds every row and the key column
    is its own sorted copy, and then the last key is the largest and must be
    below V**k. A failing check is redone row by row to name the row.
    """
    table = f"order-{k} {what} table"
    n = reader.count(f"{table} row count")
    span = reader.base**k
    width = _key_width(span)
    if width == 8:
        keys = reader.column("Q", n, table)
    else:
        grams = struct.Struct(f"{width}s").iter_unpack(reader.take(n * width, table))
        keys = list(map(int.from_bytes, chain.from_iterable(grams), repeat("big")))
    into.update(zip(keys, reader.column("d", n, table)))
    if len(into) != n or keys != sorted(keys):
        row = next(compress(count(1), map(ge, keys, islice(keys, 1, None))))
        gram = _ids(keys[row], k, reader.base)
        raise reader.fail(f"{table}, row {row + 1} {gram}: not after the row before it")
    if keys and keys[-1] >= span:
        gram = _ids(keys[-1], k, reader.base)
        raise reader.fail(f"{table}, row {n} {gram}: token id out of range")


def _key_width(span: int) -> int:
    """Bytes per key in a table whose keys lie in 0..span-1: 8, or more when u64 is too narrow."""
    return 8 if span <= 1 << 64 else ((span - 1).bit_length() + 7) // 8


def _key_column(keys: Sequence[int], span: int) -> bytes | array:
    """The file column of sorted keys that lie in 0..span-1."""
    width = _key_width(span)
    if width == 8:
        return _little(array("Q", keys))
    return b"".join(map(int.to_bytes, keys, repeat(width), repeat("big")))


def _little(items: array) -> array:
    """Swap an array between native and little-endian order, in place."""
    if _SWAP:
        items.byteswap()
    return items


def _pack(ids: Iterable[int], base: int) -> int:
    """The key of an id sequence: its ids as base-`base` digits, oldest most significant."""
    key = 0
    for i in ids:
        key = key * base + i
    return key


def _ids(key: int, k: int, base: int) -> tuple[int, ...]:
    """The k ids of a key; the oldest carries whatever does not fit k-1 digits."""
    ids = []
    for _ in range(k - 1):
        key, i = divmod(key, base)
        ids.append(i)
    ids.append(key)
    return tuple(reversed(ids))


def _decode(tables: _Tables, base: int) -> dict[tuple[int, ...], float]:
    """Id-tuple keyed copy of per-length packed tables, decoded one digit column at a time."""
    out: dict[tuple[int, ...], float] = {}
    for k, table in enumerate(tables):
        if table:
            # id j of k, oldest first, is key // base**(k-1-j) % base; the
            # oldest needs no % and the newest no //
            digits = [map(floordiv, table, repeat(base ** (k - 1)))]
            digits += [
                map(mod, map(floordiv, table, repeat(base**e)), repeat(base))
                for e in range(k - 2, 0, -1)
            ]
            digits += [map(mod, table, repeat(base))] if k > 1 else []
            out.update(zip(zip(*digits), table.values()))
    return out


def _check_order(order: int) -> None:
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in 1..{_MAX_ORDER}, got {order}")


def _check_vocabulary(tokens: Sequence[str]) -> None:
    if tuple(tokens[:3]) != RESERVED:
        raise ValueError(f"vocabulary must start with {RESERVED}")
    if len(set(tokens)) != len(tokens):
        raise ValueError("duplicate token in vocabulary")


def _check_model(
    tokens: Sequence[str],
    lp: _Tables,
    bo: _Tables,
    train_token_count: int | None,
    discounts: Sequence[float] | None,
) -> None:
    """Raise ValueError unless packed tables and metadata form a valid model.

    lp and bo are tables as _trusted takes them, of a checked order, whose
    keys are known to be n-grams of ids below len(tokens). The faults, each
    named in the message (a table fault with its table and n-gram, as in
    "order-2 events (3, 2): log-probability nan is not finite and <= 0"):
    - a vocabulary that does not start with <unk> <s> </s>, or repeats a token;
    - an event log-probability that is NaN, infinite or above 0;
    - a backoff weight that is NaN or infinite;
    - an id other than <s> without a unigram, or a unigram for <s>;
    - a token count that is not an int in 0..2**64-1;
    - discounts that are not one finite value per order.
    Each value check is one C-level pass per table; a failing table is
    searched only to name the n-gram.
    """
    _check_vocabulary(tokens)
    base, order = len(tokens), len(lp) - 1
    for k in range(1, order + 1):
        events, contexts = lp[k], bo[k]
        if not all(map(math.isfinite, events.values())) or max(events.values(), default=0) > 0:
            key, x = next(item for item in events.items() if not -math.inf < item[1] <= 0.0)
            problem = f"log-probability {x} is not finite and <= 0"
            raise ValueError(f"order-{k} events {_ids(key, k, base)}: {problem}")
        if not all(map(math.isfinite, contexts.values())):
            key, x = next(item for item in contexts.items() if not math.isfinite(item[1]))
            problem = f"backoff weight {x} is not finite"
            raise ValueError(f"order-{k} contexts {_ids(key, k, base)}: {problem}")
    if BOS_ID in lp[1]:
        raise ValueError(f"{BOS} must not carry probability mass")
    if len(lp[1]) != base - 1:
        missing = next(i for i in range(base) if i != BOS_ID and i not in lp[1])
        raise ValueError(f"missing unigram entry for token id {missing}")
    if train_token_count is not None and not (
        isinstance(train_token_count, int) and 0 <= train_token_count < 1 << 64
    ):
        raise ValueError(f"train_token_count {train_token_count!r} is not an int in 0..2**64-1")
    if discounts is not None and not (
        len(discounts) == order and all(map(math.isfinite, discounts))
    ):
        raise ValueError(f"discounts {tuple(discounts)} are not {order} finite values")


def perplexity(model: NGramModel, corpus: Iterable[Sentence]) -> float:
    """exp of the mean negative log-probability per scored event; DataError if it overflows."""
    total = 0.0
    events = 0
    for sentence in corpus:
        score = model.logprob(sentence)
        total += score.total_logprob
        events += score.token_count
    if events == 0:
        raise DataError("cannot compute perplexity over an empty corpus")
    mean = -total / events
    if mean > math.log(sys.float_info.max):
        raise DataError(
            f"perplexity overflows: exp of {mean}, the mean negative log-probability"
            " per event, is beyond the float range"
        )
    return math.exp(mean)
