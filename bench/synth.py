"""Seeded synthetic bilingual corpora with known origin labels.

The design follows the package's test bed but is kept separate from it, so
that a change to the tests cannot change what the benchmark measures. Two
topic lexicons of 300 concepts each share 60 concepts and have the same POS
make-up (100 nouns, 100 verbs, 100 adjectives). Sentences come from shared
templates: function-word slots with small pools plus content slots typed by
POS. A word renders with an "e" prefix in the source language and an "f"
prefix in the target language, so translation is word substitution and both
sides of a pair share template, length and POS row.

Monolingual text of a language draws from its own topic lexicon with
probability 0.8 and from the other one otherwise. Source-original pairs draw
concepts from the source lexicon, target-original pairs from the target one.
Every file is a pure function of the seed and the sizes.
"""

from __future__ import annotations

import os
import random

CONTENT_POS = ("NOUN", "VERB", "ADJ")

FUNCTION_SLOTS = (
    ("DET", ("da", "de")),
    ("ADP", ("pa", "pe", "pi")),
    ("PRON", ("ra", "re")),
    ("CCONJ", ("ka",)),
    ("DET", ("du",)),
    ("ADP", ("po", "pu")),
)

# ("f", function slot index) or ("c", POS of a content slot)
TEMPLATES = (
    (("f", 0), ("c", "NOUN"), ("f", 1), ("c", "VERB"), ("c", "NOUN")),
    (("f", 2), ("c", "VERB"), ("f", 0), ("c", "ADJ"), ("c", "NOUN")),
    (("f", 0), ("c", "ADJ"), ("c", "NOUN"), ("c", "VERB"), ("f", 5), ("c", "NOUN")),
    (("c", "NOUN"), ("f", 1), ("c", "NOUN"), ("c", "VERB"), ("f", 3), ("f", 2), ("c", "VERB")),
    (("f", 4), ("c", "NOUN"), ("c", "VERB"), ("f", 1), ("f", 0), ("c", "NOUN"), ("c", "ADJ")),
    (("f", 2), ("c", "VERB"), ("c", "ADJ"), ("f", 5), ("c", "NOUN")),
    (("f", 0), ("c", "NOUN"), ("c", "VERB"), ("f", 3), ("f", 4), ("c", "ADJ"), ("c", "NOUN"), ("c", "VERB")),
    (("f", 2), ("c", "NOUN"), ("f", 1), ("c", "NOUN"), ("c", "VERB"), ("c", "ADJ")),
)

OWN_TOPIC_RATE = 0.8


def _lexicon(prefix: str, count: int, start: int = 0) -> list[tuple[str, str]]:
    return [(f"{prefix}{i:03d}", CONTENT_POS[i % 3]) for i in range(start, start + count)]


def _by_pos(lexicon: list[tuple[str, str]]) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {pos: [] for pos in CONTENT_POS}
    for name, pos in lexicon:
        table[pos].append(name)
    return table


_SHARED = _lexicon("c", 60)
BY_POS = {
    "S": _by_pos(_SHARED + _lexicon("s", 240)),
    "T": _by_pos(_SHARED + _lexicon("t", 240)),
}


class Generator:
    """Sentences of one seeded stream: (language-neutral words, POS tags)."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def sentence(self, lexicon_key: str) -> tuple[list[str], list[str]]:
        rng = self.rng
        words, tags = [], []
        for kind, value in rng.choice(TEMPLATES):
            if kind == "f":
                pos, pool = FUNCTION_SLOTS[value]
                words.append(rng.choice(pool))
                tags.append(pos)
            else:
                words.append(rng.choice(BY_POS[lexicon_key][value]))
                tags.append(value)
        return words, tags

    def mono(self, own: str, count: int) -> list[tuple[list[str], list[str]]]:
        other = "T" if own == "S" else "S"
        return [
            self.sentence(own if self.rng.random() < OWN_TOPIC_RATE else other)
            for _ in range(count)
        ]

    def pairs(self, count_each: int) -> list[tuple[list[str], list[str], str]]:
        """Shuffled (words, tags, gold label) with count_each of each origin."""
        out = [(*self.sentence(key), key) for key in ("S", "T") for _ in range(count_each)]
        self.rng.shuffle(out)
        return out


def render(words: list[str], language: str) -> str:
    prefix = "e" if language == "src" else "f"
    return " ".join(prefix + word for word in words)


def write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")


def write_mono(directory: str, name: str, rows, language: str, with_pos: bool = False) -> None:
    write_lines(os.path.join(directory, name), (render(w, language) for w, _ in rows))
    if with_pos:
        write_lines(os.path.join(directory, name + ".pos"), (" ".join(t) for _, t in rows))


def write_pairs(directory: str, name: str, rows, with_pos: bool = False) -> None:
    """<name>.src / .tgt (and .src.pos / .tgt.pos) plus <name>.gold."""
    base = os.path.join(directory, name)
    write_lines(base + ".src", (render(w, "src") for w, _, _ in rows))
    write_lines(base + ".tgt", (render(w, "tgt") for w, _, _ in rows))
    if with_pos:
        write_lines(base + ".src.pos", (" ".join(t) for _, t, _ in rows))
        write_lines(base + ".tgt.pos", (" ".join(t) for _, t, _ in rows))
    write_lines(base + ".gold", (label for _, _, label in rows))


def perturb(rng: random.Random, words: list[str], tags: list[str]):
    """A hypothesis line whose clipped matches against its reference are known.

    One position is replaced by a token that never occurs in any reference,
    and one token of another type is appended a second time. Returns the
    hypothesis words, the POS of the replaced token and the POS of the
    duplicated token.
    """
    replaced = rng.randrange(len(words))
    others = [i for i, w in enumerate(words) if w != words[replaced]]
    duplicated = rng.choice(others)
    hyp = list(words)
    hyp[replaced] = f"zz{rng.randrange(1000):03d}"
    hyp.append(words[duplicated])
    return hyp, tags[replaced], tags[duplicated]
