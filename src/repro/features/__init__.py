"""Feature extraction: histograms, image encodings, n-grams, tokenizers."""

from .batch import (
    BatchFeatureService,
    CacheLoadError,
    CacheStats,
    CacheWriteError,
    VocabularyProjection,
    get_default_service,
    resolve_service,
    set_default_service,
    use_service,
)
from .corpus import CorpusBlob, CorpusBlobError, extract_spans
from .store import (
    FeatureStore,
    StoreSession,
    corpus_fingerprint,
    feature_session,
    last_session,
)
from .chunking import (
    ChunkedSequence,
    aggregate_chunk_logits,
    flatten_chunks,
    sliding_window_chunks,
)
from .histogram import (
    HistogramVocabulary,
    OpcodeHistogramExtractor,
    opcode_usage_distribution,
)
from .image import FrequencyImageEncoder, R2D2ImageEncoder
from .ngram import HexNgramEncoder, PAD_ID, UNKNOWN_ID
from .tokenizer import (
    CLS_TOKEN,
    EOS_TOKEN,
    OpcodeTokenizer,
    PAD_TOKEN,
    SPECIAL_TOKENS,
    UNKNOWN_TOKEN,
)

__all__ = [
    "BatchFeatureService",
    "CacheLoadError",
    "CacheStats",
    "CacheWriteError",
    "CorpusBlob",
    "CorpusBlobError",
    "extract_spans",
    "FeatureStore",
    "StoreSession",
    "corpus_fingerprint",
    "feature_session",
    "last_session",
    "VocabularyProjection",
    "get_default_service",
    "resolve_service",
    "set_default_service",
    "use_service",
    "ChunkedSequence",
    "aggregate_chunk_logits",
    "flatten_chunks",
    "sliding_window_chunks",
    "HistogramVocabulary",
    "OpcodeHistogramExtractor",
    "opcode_usage_distribution",
    "FrequencyImageEncoder",
    "R2D2ImageEncoder",
    "HexNgramEncoder",
    "PAD_ID",
    "UNKNOWN_ID",
    "CLS_TOKEN",
    "EOS_TOKEN",
    "OpcodeTokenizer",
    "PAD_TOKEN",
    "SPECIAL_TOKENS",
    "UNKNOWN_TOKEN",
]
