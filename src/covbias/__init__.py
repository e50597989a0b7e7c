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

from .abstraction import (
    AbstractionRule,
    FluencyReport,
    abstract_corpus,
    abstract_sentence,
    fluency_report,
)
from .corpus import (
    OriginLabel,
    ParallelExample,
    PosAnnotation,
    Sentence,
    read_mono,
    read_parallel,
    write_mono,
    write_parallel,
)
from .dataprep import (
    DEFAULT_ORIGIN_TAG,
    DEFAULT_SYNTHETIC_TAG,
    ManifestEntry,
    TagPolicy,
    bias_tag,
    detag,
    finetune_split,
    manifest_to_tsv,
    merge_augment,
)
from .detect import (
    DetectionEval,
    DetectorConfig,
    ScoreRecord,
    SelectionSpec,
    classify,
    evaluate_detection,
    label_for,
    raw_score_pair,
    score_pair,
    select_extremes,
    tune_offset,
)
from .divergence import (
    DivergenceReport,
    VocabDistribution,
    WordClassMap,
    build_distribution,
    divergence_report,
    js,
    random_split,
)
from .errors import (
    CovbiasError,
    DataError,
    DegenerateVocabulary,
    EmptyCorpus,
    EmptyInput,
    EmptyLine,
    EmptySelection,
    FormatError,
    InvalidFraction,
    LengthMismatch,
    LineCountMismatch,
    MissingPosAnnotations,
    PosAlignmentError,
    SingleClassInput,
    TagCollision,
)
from .fmeasure import (
    AdequacyReport,
    BucketStats,
    word_fmeasure,
)
from .lm import MODEL_FORMAT_VERSION, LmScore, NGramModel, perplexity

__version__ = "0.1.0"

__all__ = [
    "AbstractionRule",
    "AdequacyReport",
    "BucketStats",
    "CovbiasError",
    "DataError",
    "DEFAULT_ORIGIN_TAG",
    "DEFAULT_SYNTHETIC_TAG",
    "DegenerateVocabulary",
    "DetectionEval",
    "DetectorConfig",
    "DivergenceReport",
    "EmptyCorpus",
    "EmptyInput",
    "EmptyLine",
    "EmptySelection",
    "FluencyReport",
    "FormatError",
    "InvalidFraction",
    "LengthMismatch",
    "LineCountMismatch",
    "LmScore",
    "ManifestEntry",
    "MissingPosAnnotations",
    "MODEL_FORMAT_VERSION",
    "NGramModel",
    "OriginLabel",
    "ParallelExample",
    "PosAlignmentError",
    "PosAnnotation",
    "ScoreRecord",
    "SelectionSpec",
    "Sentence",
    "SingleClassInput",
    "TagCollision",
    "TagPolicy",
    "VocabDistribution",
    "WordClassMap",
    "abstract_corpus",
    "abstract_sentence",
    "bias_tag",
    "build_distribution",
    "classify",
    "detag",
    "divergence_report",
    "evaluate_detection",
    "finetune_split",
    "fluency_report",
    "js",
    "label_for",
    "manifest_to_tsv",
    "merge_augment",
    "perplexity",
    "random_split",
    "raw_score_pair",
    "read_mono",
    "read_parallel",
    "score_pair",
    "select_extremes",
    "tune_offset",
    "word_fmeasure",
    "write_mono",
    "write_parallel",
]
