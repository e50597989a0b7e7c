"""Original-language detection and coverage-bias analysis for parallel corpora.

The toolkit trains simple n-gram language models on monolingual text from
both sides of a translation direction, scores each parallel pair by the
difference of the two models' log-probabilities to decide which side was
written first, and offers the downstream analyses and corpus preparations
that build on those labels: vocabulary divergence between the two origin
groups, per-POS bag-of-words F-measure, content-word abstraction for
fluency-only comparison, origin tagging, fine-tuning splits, and synthetic
data merging.
"""

import importlib

__version__ = "0.1.0"
# the model file layout that covbias.lm reads and writes
MODEL_FORMAT_VERSION = 2
# the tokens that covbias.dataprep tags with unless given another
DEFAULT_ORIGIN_TAG = "<TORIG>"
DEFAULT_SYNTHETIC_TAG = "<BT>"

# The other public names, by the submodule that defines them. Each submodule
# is imported on the first access to one of its names (PEP 562), so a CLI
# run loads only the layers its subcommand uses.
_EXPORTS = {
    "abstraction": ("FluencyReport", "abstract_corpus", "fluency_report"),
    "corpus": (
        "OriginLabel", "ParallelExample", "PosAnnotation", "Sentence", "read_mono",
        "read_parallel", "write_mono", "write_parallel",
    ),
    "dataprep": ("ManifestEntry", "bias_tag", "finetune_split", "merge_augment"),
    "detect": ("classify", "label_for", "score_pair", "select_extremes", "tune_offset"),
    "divergence": (
        "DEFAULT_CONTENT_TAGS", "DivergenceReport", "divergence_report", "js", "random_split",
        "read_word_classes",
    ),
    "errors": ("DataError", "FormatError"),
    "fmeasure": ("BucketStats", "word_fmeasure"),
    "lm": ("LmScore", "NGramModel", "perplexity"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "fileio"}

__all__ = sorted([*_HOME, "DEFAULT_ORIGIN_TAG", "DEFAULT_SYNTHETIC_TAG", "MODEL_FORMAT_VERSION"])


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
