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
Numeric order of same-length keys is the order of their id tuples. There is
one table per length, _lp[k] for n-grams of k = 1..order ids and _bo[k] for
contexts of k = 1..order-1 ids (keys of different lengths collide), held as
the two columns the file stores: the strictly increasing keys (an
array('Q'), or a list of ints where V**k > 2**64) and an array('d') of
values. The scorer keeps the last m context ids as one int H and looks the
event w up in _lp[m+1] at H*V + w; on a miss it adds _bo[m]'s weight for H
if present, drops the oldest id (H %= V**(m-1)) and tries again with m-1.

Training builds these columns in key order, as lmplz does (Heafield et al.
2013). The top order is counted in one dict and sorted once; each lower
order counts the suffixes key % V**k of the order above and sorts them once.
The rows of a context h = key // V are a run of the sorted keys, so the
contexts come out sorted, with T(h) the run's length and c(h) its count sum.
The floats are the formulas' own, operand for operand: beta(h) = D * T(h) /
c(h) is also the factor of exp(stored log p(w | shortened h)). For k >= 2
every count is >= 1 > D (n1 / (n1 + 2 * n2) or 0.75), so max(c - D, 0) is
c - D; the unigrams, whose c can be 0, keep the max.

A lookup bisects a key column until logprob has scored one event per
_ROWS_PER_BISECTED_EVENT (12) rows of the model. Then each column becomes a
dict, built from the same keys and floats, and lookups are dict.get: the
bisection paid so far is about what the dicts cost to build, so a short run
never builds them and a long one pays at most about twice their cost.
Scores do not depend on when the switch happens. The dicts store what
repeats once (Pauls and Klein 2011): a context's key is the object of the
same n-gram's event key, and equal backoff weights of a contexts table are
one float. On the order-4 model of the model-reuse benchmark (153,994 rows,
V = 554) the columns take 2.5 MiB and load in about 20 ms; the dicts take
11.5 MiB (14.0 MiB unshared) and about 35 ms to build, and bisection scores
an event about 2.5 us slower than dict.get, so the measured break-even lies
at rows/11 to rows/12 events (rows/9 to rows/20 in single runs). Until then
the columns also keep the run 9 MiB smaller: the 7k-event perplexity runs
of that benchmark never build the index.

The file (format 2, little-endian) holds the same keys. After the magic
"NGLM", u16 version, u16 order, u32 V and each token as a u32 length and its
UTF-8 bytes come the training metadata: u8 flags, always 3 (1: token count,
2: discounts; every model has both), the u64 token count and one f64
discount per order. Then for k = 1..order come the order-k events table and,
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
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat
from operator import add, floordiv, ge, lt, mod, mul, ne, sub, truediv
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
_FLAGS = 3  # 1: token count, 2: discounts; the only flags a model file may carry
_SWAP = sys.byteorder == "big"  # file columns are little-endian
# Scoring bisects the columns until it has scored one event per this many
# rows, then builds the dict index (see NGramModel._index).
_ROWS_PER_BISECTED_EVENT = 12

# The tables of one kind, by n-gram length 0..order: each a _Column until
# the scorer builds its index, a dict after.
_Tables = list["_Column | dict[int, float]"]


class LmScore(NamedTuple):
    total_logprob: float
    token_count: int  # scored events, including the terminating </s>


class NGramModel:
    """An immutable trained model: lookup tables plus metadata.

    A model comes from train or load; calling the class raises TypeError.
    logprobs maps full n-gram id tuples (any length 1..order) to natural-log
    conditional probabilities; backoffs maps context id tuples (length
    1..order-1) to natural-log backoff weights. Both are read-only views
    decoded from the tables on every access, at O(rows) per access. Every
    model carries its training metadata: train_token_count, the int number
    of training tokens, and discounts, a tuple of one float D_k per order.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise TypeError("build an NGramModel with NGramModel.train or NGramModel.load")

    def _trusted(
        self,
        order: int,
        tokens: Sequence[str],
        lp: _Tables,
        bo: _Tables,
        train_token_count: int,
        discounts: Sequence[float],
    ) -> "NGramModel":
        """Take valid columns, with no copy and no check; return self.

        lp[k] and bo[k] are the _Columns of the k-id keys (see the module
        docstring); lp[0], bo[0] and bo[order] are empty. The model takes
        ownership of the lists and columns. train, whose columns are valid by
        construction, and load, once its checks pass, call it on cls.__new__(cls).
        """
        self.order = order
        self.id_to_token: tuple[str, ...] = tuple(tokens)
        self._ids = {t: i for i, t in enumerate(tokens)}
        self._start = _pack((BOS_ID,) * (order - 1), len(tokens))  # the <s> padding as a history
        self._lp = lp
        self._bo = bo
        self._set_levels()
        # events logprob may still score by bisection before it builds the index
        self._unindexed = sum(map(len, lp + bo)) // _ROWS_PER_BISECTED_EVENT
        self.train_token_count = train_token_count
        self.discounts = tuple(discounts)
        return self

    def _set_levels(self) -> None:
        """The scorer's back-off steps, from the longest context (m = order-1) down."""
        lp, bo, base = self._lp, self._bo, len(self.id_to_token)
        self._levels = tuple(
            (lp[m + 1].get, bo[m].get, base ** max(m - 1, 0))
            for m in range(self.order - 1, -1, -1)
        )

    def _index(self) -> None:
        """Score through dicts from now on, built from the columns, and drop the columns.

        Called by logprob once it has scored one event per
        _ROWS_PER_BISECTED_EVENT rows. Each dict holds its column's keys in
        their sorted order, so save writes the same bytes from it, and a
        contexts dict shares keys and weights as _contexts_index says. On the
        order-4 model of the model-reuse benchmark (153,994 rows) the dicts
        take 11.5 MiB and about 35 ms to build.
        """
        self._unindexed = math.inf
        self._levels = ()  # its lookups hold the columns, which go as their dicts come
        lp, bo = self._lp, self._bo
        try:
            for k in range(self.order + 1):  # the largest table, the top events, comes last
                lp[k] = dict(zip(lp[k].keys(), lp[k].values()))
                bo[k] = _contexts_index(bo[k], lp[k])
        finally:  # a column and a dict answer get alike, so a partial index still scores
            self._set_levels()

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

        Tokens seen fewer than min_count times are masked to <unk>. The corpus
        is materialized (two passes). Each column is built in key order, each
        context's T(h) and c(h) read off its run of sorted rows (module docstring).
        """
        _check_order(order)
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")

        sentences = list(map(tuple, corpus))
        if not sentences:
            raise DataError("cannot train on an empty corpus")
        freqs = Counter(chain.from_iterable(sentences))

        surviving = sorted(t for t, c in freqs.items() if c >= min_count and t not in RESERVED)
        # the survivors, and <unk> when any token type is masked to it
        effective_types = len(surviving) + (len(surviving) < len(freqs))
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
        top: dict[int, int] = {}
        tally = top.get
        start, keep = _pack((BOS_ID,) * (order - 1), base), base ** (order - 1)
        for sentence in sentences:
            history = start
            for wid in chain(map(data_ids.get, sentence, repeat(UNK_ID)), (EOS_ID,)):
                gram = history * base + wid
                top[gram] = tally(gram, 0) + 1
                history = gram % keep
        grams = sorted(top)
        # the sorted keys and counts of each order, from the highest down
        levels = [(grams, list(map(top.__getitem__, grams)))]
        del top

        # Lower orders: continuation counts (distinct left extensions).
        for k in range(order - 1, 0, -1):
            cont = Counter(map(mod, grams, repeat(base**k)))
            grams = sorted(cont)
            levels.append((grams, list(map(cont.__getitem__, grams))))

        discounts = [0.0]
        for _, tallies in reversed(levels):
            n = Counter(tallies)  # n[1] and n[2]: the n1 and n2 of D_k
            discounts.append(n[1] / (n[1] + 2 * n[2]) if n[1] and n[2] else _FALLBACK_DISCOUNT)

        # Unigrams: interpolate with uniform over the predictable vocabulary.
        uni = dict(zip(*levels.pop()))
        total = sum(uni.values())
        d1 = discounts[1]
        lam = d1 * len(uni) / total
        uniform = 1.0 / (base - 1)  # everything but <s>
        wids = [UNK_ID, *range(EOS_ID, base)]
        counts = map(uni.get, wids, repeat(0))
        values = [math.log(max(c - d1, 0.0) / total + lam * uniform) for c in counts]
        lp, bo = [_EMPTY, _column(wids, values, base)], [_EMPTY]

        # Higher orders, bottom-up; the shortened-context probability of any
        # seen n-gram is itself a seen (k-1)-gram by construction.
        for k in range(2, order + 1):
            contexts, events = _interpolate(*levels.pop(), discounts[k], lp[k - 1], base, k)
            bo.append(contexts)
            lp.append(events)
        bo.append(_EMPTY)

        # Valid by construction (keys strictly increasing, ids from the vocabulary,
        # values finite and <= 0); property tests pass them through load.
        model = cls.__new__(cls)
        return model._trusted(order, id_to_token, lp, bo, freqs.total(), discounts[1:])

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
        events = len(sentence) + 1
        self._unindexed -= events
        if self._unindexed <= 0:
            self._index()
        return LmScore(total, events)

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
        with atomic_write_bytes(path) as handle:
            handle.write(_MAGIC + _VERSION_ORDER.pack(MODEL_FORMAT_VERSION, self.order))
            handle.write(_U32.pack(base))
            for token in self.id_to_token:
                raw = token.encode("utf-8")
                handle.write(_U32.pack(len(raw)) + raw)
            handle.write(_META.pack(_FLAGS, self.train_token_count))
            handle.write(struct.pack(f"<{self.order}d", *self.discounts))
            for k in range(1, self.order + 1):
                for table in (self._lp[k], self._bo[k]) if k < self.order else (self._lp[k],):
                    handle.write(_U32.pack(len(table)))
                    handle.write(_key_column(table.keys(), base**k))
                    handle.write(_little("d", table.values()))

    @classmethod
    def load(cls, path: str) -> "NGramModel":
        """Read a model file of the current format; scoring is reproduced exactly.

        Every length and count is checked against the bytes left before
        anything is read. FormatError names the file and a framing fault: a
        bad magic or version, a token that is not UTF-8, a table whose keys
        repeat, go back or name an id outside the vocabulary, truncation,
        trailing bytes, or metadata flags other than 3 (a file without its
        token count or discounts). The order, the vocabulary and then the
        model must pass _check_order, _check_vocabulary and _check_model.
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
                flags, token_count = _META.unpack(reader.take(_META.size, "metadata"))
                if flags != _FLAGS:
                    raise reader.fail(f"metadata flags must be {_FLAGS}, got {flags}")
                discounts = struct.unpack(f"<{order}d", reader.take(8 * order, "discounts"))
                lp, bo = [_EMPTY], [_EMPTY]
                for k in range(1, order + 1):
                    lp.append(_read_table(reader, k, "events"))
                    bo.append(_read_table(reader, k, "contexts") if k < order else _EMPTY)
                if reader.left:
                    raise reader.fail("trailing bytes after the last table")
                _check_model(lp, bo, base, discounts)
            except ValueError as exc:
                raise reader.fail(str(exc)) from exc
        return cls.__new__(cls)._trusted(order, tokens, lp, bo, token_count, discounts)


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


class _Column:
    """One table as its file stores it: strictly increasing keys and their values.

    keys() is an array('Q'), or a list of ints where V**k > 2**64, and
    values() an array('d'). get(key) finds a key by bisection and answers
    as dict.get would, so the scorer takes either.
    """

    __slots__ = ("_keys", "_values", "get")

    def __init__(self, keys: array | list[int], values: array):
        self._keys = keys
        self._values = values
        rows = len(keys)

        def get(key: int) -> float | None:
            i = bisect_left(keys, key)
            return values[i] if i < rows and keys[i] == key else None

        self.get = get

    def keys(self) -> array | list[int]:
        return self._keys

    def values(self) -> array:
        return self._values

    def __len__(self) -> int:
        return len(self._keys)


_EMPTY = _Column(array("Q"), array("d"))


def _column(keys: list[int], values: Iterable[float], span: int) -> _Column:
    """The _Column of sorted keys that lie in 0..span-1 and their values."""
    return _Column(array("Q", keys) if _key_width(span) == 8 else keys, array("d", values))


def _contexts_index(column: _Column, events: dict[int, float]) -> dict[int, float]:
    """The dict of a contexts column over the key objects of the same-length events dict.

    In a trained model every context but the all-<s> one is also an event.
    A context with no event keeps a key of its own, and the sort merges the
    two sorted runs back into the column's order. Equal backoff weights
    become one float unless the table holds a zero: -0.0 == 0.0 would merge
    the signs and change the saved bytes.
    """
    keys, values = column.keys(), column.values()
    contexts = set(keys)
    shared = filter(contexts.__contains__, events)
    keys = sorted(chain(shared, filterfalse(events.__contains__, keys)))
    del contexts  # freed before the dict is built
    if 0.0 not in values:
        weights: dict[float, float] = {}
        values = map(weights.setdefault, values, values)
    return dict(zip(keys, values))


def _interpolate(
    grams: list[int], tallies: list[int], dk: float, lower: _Column, base: int, k: int
) -> tuple[_Column, _Column]:
    """The order-(k-1) contexts and order-k events columns of the sorted k-gram keys.

    tallies are the keys' counts, dk the order's discount and lower the
    order-(k-1) events column. The j-th context's rows are starts[j] to
    ends[j] - 1.
    """
    contexts = list(map(floordiv, grams, repeat(base)))
    starts = [0, *compress(count(1), map(ne, contexts, islice(contexts, 1, None)))]
    ends = starts[1:] + [len(grams)]
    running = list(accumulate(tallies, initial=0))
    totals = list(map(sub, map(running.__getitem__, ends), map(running.__getitem__, starts)))
    types = list(map(sub, ends, starts))
    weights = list(map(truediv, map(mul, repeat(dk), types), totals))
    drop = base ** (k - 1)
    heads = _column(list(map(contexts.__getitem__, starts)), map(math.log, weights), drop)
    del contexts, ends, starts, running  # freed before the events column is built
    exp_lower = dict(zip(lower.keys(), map(math.exp, lower.values())))
    row_totals = chain.from_iterable(map(repeat, totals, types))
    row_weights = chain.from_iterable(map(repeat, weights, types))
    lower_p = map(exp_lower.__getitem__, map(mod, grams, repeat(drop)))
    # (c - D) / c(h) + beta(h) * exp(lower): no max, as every count is >= 1 > D
    discounted = map(truediv, map(sub, tallies, repeat(dk)), row_totals)
    p = map(add, discounted, map(mul, row_weights, lower_p))
    return heads, _column(grams, map(math.log, p), base**k)


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

    def column(self, typecode: str, n: int, what: str) -> array:
        """n little-endian items of an array typecode, as a native array."""
        items = array(typecode)
        items.fromfile(self.handle, self.room(n * items.itemsize, what) // items.itemsize)
        if _SWAP:
            items.byteswap()
        return items


def _read_table(reader: _Reader, k: int, what: str) -> _Column:
    """Read one table, "events" or "contexts", as it is stored.

    Only what the file alone knows is checked here, one C-level pass each:
    the keys strictly increase, and then the last key is the largest and
    must be below V**k. A failing check is redone to name the row.
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
    values = reader.column("d", n, table)
    if not all(map(lt, keys, islice(keys, 1, None))):
        row = next(compress(count(1), map(ge, keys, islice(keys, 1, None))))
        gram = _ids(keys[row], k, reader.base)
        raise reader.fail(f"{table}, row {row + 1} {gram}: not after the row before it")
    if keys and keys[-1] >= span:
        gram = _ids(keys[-1], k, reader.base)
        raise reader.fail(f"{table}, row {n} {gram}: token id out of range")
    return _Column(keys, values)


def _key_width(span: int) -> int:
    """Bytes per key in a table whose keys lie in 0..span-1: 8, or more when u64 is too narrow."""
    return 8 if span <= 1 << 64 else ((span - 1).bit_length() + 7) // 8


def _key_column(keys: Iterable[int], span: int) -> bytes | array:
    """The file column of sorted keys that lie in 0..span-1."""
    width = _key_width(span)
    if width == 8:
        return _little("Q", keys)
    return b"".join(map(int.to_bytes, keys, repeat(width), repeat("big")))


def _little(typecode: str, items: Iterable) -> array:
    """items as a little-endian array; on a little-endian host an array is not copied."""
    if _SWAP or not isinstance(items, array):
        items = array(typecode, items)
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
    """Id-tuple keyed copy of per-length tables, decoded one digit column at a time."""
    out: dict[tuple[int, ...], float] = {}
    for k, table in enumerate(tables):
        if table:
            keys = table.keys()
            # id j of k, oldest first, is key // base**(k-1-j) % base; the
            # oldest needs no % and the newest no //
            digits = [map(floordiv, keys, repeat(base ** (k - 1)))]
            digits += [
                map(mod, map(floordiv, keys, repeat(base**e)), repeat(base))
                for e in range(k - 2, 0, -1)
            ]
            digits += [map(mod, keys, repeat(base))] if k > 1 else []
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


def _check_model(lp: _Tables, bo: _Tables, base: int, discounts: Sequence[float]) -> None:
    """Raise ValueError unless the columns and discounts of a model file form a valid model.

    load calls it on what it read: columns of a checked order whose keys
    strictly increase and are n-grams of ids below base, the size of a
    checked vocabulary, and one discount per order. The faults, each named
    in the message (a table fault with its table and n-gram, as in "order-2
    events (3, 2): log-probability nan is not finite and <= 0"):
    - an event log-probability that is NaN, infinite or above 0;
    - a backoff weight that is NaN or infinite;
    - an id other than <s> without a unigram, or a unigram for <s>;
    - a discount that is not finite.
    A float sum is finite only when every term is, so one C-level sum (and a
    max over events) clears a table; a table that fails it is searched row by
    row, to name the first faulty row or to find that the sum only overflowed.
    """
    order = len(lp) - 1
    for k in range(1, order + 1):
        values = lp[k].values()
        if not (math.isfinite(sum(values)) and max(values, default=0.0) <= 0.0):
            row = next((i for i, x in enumerate(values) if not -math.inf < x <= 0.0), None)
            if row is not None:
                problem = f"log-probability {values[row]} is not finite and <= 0"
                raise ValueError(f"order-{k} events {_ids(lp[k].keys()[row], k, base)}: {problem}")
        values = bo[k].values()
        if not math.isfinite(sum(values)):
            row = next((i for i, x in enumerate(values) if not math.isfinite(x)), None)
            if row is not None:
                problem = f"backoff weight {values[row]} is not finite"
                raise ValueError(f"order-{k} contexts {_ids(bo[k].keys()[row], k, base)}: {problem}")
    unigrams = lp[1].keys()
    if BOS_ID in unigrams:
        raise ValueError(f"{BOS} must not carry probability mass")
    if len(unigrams) != base - 1:
        present = set(unigrams)
        missing = next(i for i in range(base) if i != BOS_ID and i not in present)
        raise ValueError(f"missing unigram entry for token id {missing}")
    if not all(map(math.isfinite, discounts)):
        raise ValueError(f"discounts {tuple(discounts)} are not {order} finite values")


def perplexity(model: NGramModel, corpus: Iterable[Sentence]) -> float:
    """exp of the mean negative log-probability per scored event; DataError if it overflows."""
    total = 0.0
    events = 0
    for sentence in corpus:
        score = model.logprob(sentence)
        total += score.total_logprob
        events += score.token_count
    return _perplexity(total, events)


def _perplexity(total: float, events: int) -> float:
    """exp(-total / events) for a corpus's summed log-probability and event count.

    DataError for an empty corpus, and for a mean beyond exp's float range.
    """
    if events == 0:
        raise DataError("cannot compute perplexity over an empty corpus")
    mean = -total / events
    if mean > math.log(sys.float_info.max):
        raise DataError(
            f"perplexity overflows: exp of {mean}, the mean negative log-probability"
            " per event, is beyond the float range"
        )
    return math.exp(mean)
