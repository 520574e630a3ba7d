"""Toolkit for identifying and classifying meta-comments in news-site user comments."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    ADDRESSEE_LABELS,
    CLASS_ORDER,
    Comment,
    DatasetError,
    LabeledDataset,
    LabelSet,
    dataset_stats,
    load_dataset,
    save_dataset,
)
from .textprep import TokenStream, ngrams, preprocess, tokenize  # noqa: F401
from .embeddings import (  # noqa: F401
    DocEmbeddingModel,
    WordEmbeddingModel,
    WordTrainingParams,
    cosine_distance,
    cosine_similarity,
    train_doc_embeddings,
    train_word_embeddings,
)
from .features import (  # noqa: F401
    FeatureExtractor,
    KeywordSet,
    class_vectors,
    count_pattern_matches,
    enrich_keywords,
    select_k_best,
    semantic_features,
    text_stats_features,
    tfidf_fit,
    tfidf_transform,
)
from .classifiers import TrainedModel, calibrate, load_model, save_model, train  # noqa: F401
from .evaluation import (  # noqa: F401
    GridSpec,
    Metrics,
    binary_labels,
    cross_dataset_eval,
    cross_validate,
    f_beta,
    grid_search,
    stratified_k_fold,
    two_step_classify,
)
from .pipeline import CnnPipeline, FeaturePipeline, TwoStepClassifier, feature_cache  # noqa: F401
