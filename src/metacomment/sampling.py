"""Candidate sampling for annotation and merging of coded label sets.

Meta-comments are rare, so annotation batches are bootstrapped by keyword
patterns and by embedding similarity between a class's keyword average
vector and the comment vectors, alongside plain random samples.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import CLASS_ORDER, Comment, DatasetError, LabeledDataset, LabelSet
from .embeddings import DocEmbeddingModel, WordEmbeddingModel, cosine_similarities
from .features import (
    KeywordSet,
    comment_vectors,
    compile_keyword_pattern,
    count_pattern_matches,
)

logger = logging.getLogger(__name__)

PROVENANCES = ("pattern", "similarity", "random")


class SamplingError(ValueError):
    """Invalid sampling input (all keywords OOV, unknown comment id, ...)."""


@dataclass(frozen=True)
class BatchItem:
    comment: Comment
    provenance: str
    score: Optional[float] = None


@dataclass(frozen=True)
class AnnotationBatch:
    """Ordered annotation candidates with their sampling provenance."""

    batch_id: str
    items: tuple

    def __post_init__(self):
        seen = set()
        for item in self.items:
            if item.provenance not in PROVENANCES:
                raise SamplingError(f"unknown provenance {item.provenance!r}")
            if item.comment.id in seen:
                raise SamplingError(f"duplicate comment id {item.comment.id!r} in batch")
            seen.add(item.comment.id)
        scores = [item.score for item in self.items if item.score is not None]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise SamplingError("batch scores must be non-increasing")

    def __len__(self) -> int:
        return len(self.items)

    def ids(self) -> list:
        return [item.comment.id for item in self.items]


def sample_by_pattern(ds: LabeledDataset, ks: KeywordSet, n: int,
                      batch_id: str = "pattern") -> AnnotationBatch:
    """First n comments (dataset order) matching the keyword pattern."""
    if n < 0:
        raise SamplingError("n must be >= 0")
    pattern = compile_keyword_pattern(ks.enriched)
    items = []
    for comment, _ in ds:
        if len(items) == n:
            break
        if count_pattern_matches(comment, pattern) > 0:
            items.append(BatchItem(comment, "pattern"))
    return AnnotationBatch(batch_id=batch_id, items=tuple(items))


def keyword_average_vector(ks: KeywordSet, word_model: WordEmbeddingModel) -> np.ndarray:
    """Mean embedding of the in-vocabulary enriched keywords."""
    vectors = [word_model.vector(token) for token in ks.enriched
               if token in word_model]
    if not vectors:
        raise SamplingError(f"no {ks.label or 'keyword'} keyword has an embedding")
    return np.mean(vectors, axis=0)


def sample_by_similarity(ds: LabeledDataset, ks: KeywordSet,
                         word_model: WordEmbeddingModel, dm: DocEmbeddingModel,
                         n: int = 100, batch_id: str = "similarity",
                         stopwords=None) -> AnnotationBatch:
    """Top-n comments by cosine similarity to the keyword average vector."""
    if n < 0:
        raise SamplingError("n must be >= 0")
    anchor = keyword_average_vector(ks, word_model)
    comments = list(ds.comments())
    vectors = comment_vectors(dm, comments, stopwords)
    scores = cosine_similarities(vectors, anchor[None, :])[:, 0].tolist()
    ranked = sorted(range(len(comments)), key=lambda i: (-scores[i], i))
    items = tuple(BatchItem(comments[i], "similarity", scores[i]) for i in ranked[:n])
    return AnnotationBatch(batch_id=batch_id, items=items)


def sample_random(ds: LabeledDataset, n: int, seed: int = 0,
                  batch_id: str = "random") -> AnnotationBatch:
    """Uniform sample without replacement, deterministic for a seed."""
    if n < 0:
        raise SamplingError("n must be >= 0")
    rng = np.random.default_rng(seed)
    entries = list(ds)
    chosen = rng.choice(len(entries), size=min(n, len(entries)), replace=False)
    items = tuple(BatchItem(entries[i][0], "random") for i in sorted(chosen))
    return AnnotationBatch(batch_id=batch_id, items=items)


# -- annotation batch CSV -------------------------------------------------------

_CSV_COLUMNS = ("batch_id", "comment_id", "title", "text", "provenance",
                "score", "label")


def export_batch(batch: AnnotationBatch, path) -> None:
    """Write a batch for external coders; the label column stays empty.

    The first line lists the valid label vocabulary as a '#' comment.
    """
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        fh.write("# labels: " + ";".join(CLASS_ORDER) + "\n")
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for item in batch.items:
            writer.writerow([batch.batch_id, item.comment.id, item.comment.title,
                             item.comment.text, item.provenance,
                             "" if item.score is None else repr(item.score), ""])


def load_coded_csv(path) -> List[Tuple[str, LabelSet]]:
    """Read a returned batch file; labels are ';'-separated in the label column."""
    coded = []
    with open(Path(path), encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        reader = csv.DictReader(fh)
        for row in reader:
            raw = (row.get("label") or "").strip()
            labels = frozenset(part.strip() for part in raw.split(";") if part.strip())
            coded.append((row["comment_id"], LabelSet(labels)))
    return coded


def merge_annotations(ds: LabeledDataset, coded: Sequence[Tuple[str, LabelSet]],
                      policy: str = "majority-with-third-coder"
                      ) -> Tuple[LabeledDataset, tuple]:
    """Merge per-coder label sets into the dataset.

    majority-with-third-coder keeps each label at least two of three coders
    agree on; strict requires fully identical coder label sets. Unresolved
    disagreements are flagged and left unmerged. Returns the merged dataset
    and the flagged comment ids.
    """
    if policy not in ("majority-with-third-coder", "strict"):
        raise SamplingError(f"unknown merge policy {policy!r}")
    known_ids = ds.ids()
    votes: Dict[str, List[LabelSet]] = {}
    for comment_id, label_set in coded:
        if comment_id not in known_ids:
            raise SamplingError(f"unknown comment id {comment_id!r}")
        votes.setdefault(comment_id, []).append(label_set)

    resolved: Dict[str, LabelSet] = {}
    flagged: List[str] = []
    for comment_id, coder_sets in votes.items():
        n_coders = len(coder_sets)
        if policy == "strict":
            if all(cs == coder_sets[0] for cs in coder_sets):
                resolved[comment_id] = coder_sets[0]
            else:
                flagged.append(comment_id)
            continue
        counts: Dict[str, int] = {}
        for cs in coder_sets:
            for label in cs.labels:
                counts[label] = counts.get(label, 0) + 1
        majority = frozenset(label for label, c in counts.items() if 2 * c > n_coders)
        if not majority and any(cs.labels for cs in coder_sets):
            flagged.append(comment_id)
            continue
        try:
            resolved[comment_id] = LabelSet(majority)
        except DatasetError:
            flagged.append(comment_id)

    entries = tuple((comment, resolved.get(comment.id, labels))
                    for comment, labels in ds)
    if flagged:
        logger.warning("%d comments left unmerged due to coder disagreement",
                       len(flagged))
    return LabeledDataset(entries, ds.source_tag), tuple(sorted(flagged))
