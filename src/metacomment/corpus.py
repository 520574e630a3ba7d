"""Comment data model, JSONL dataset loading/saving, and corpus statistics."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterator, Optional

from .files import utf8_error

LABEL_MEDIA = "Media"
LABEL_JOURNALIST = "Journalist"
LABEL_MODERATOR = "Moderator"
LABEL_META = "Meta"
LABEL_NONMETA = "NonMeta"

ADDRESSEE_LABELS = (LABEL_MEDIA, LABEL_JOURNALIST, LABEL_MODERATOR)

# Fixed class order, used for deterministic tie-breaking everywhere.
CLASS_ORDER = (LABEL_MEDIA, LABEL_JOURNALIST, LABEL_MODERATOR, LABEL_META, LABEL_NONMETA)

_JSONL_KEYS = (
    "id", "title", "text", "timestamp",
    "username", "department", "position", "has_quote", "forum_id", "labels",
)


class DatasetError(ValueError):
    """Malformed dataset file or record violating a data invariant."""


@dataclass(frozen=True)
class Comment:
    """One user comment with its site metadata.

    Optional metadata is ``None`` when the source site does not provide it;
    downstream feature code must handle absence explicitly.
    """

    id: str
    title: str
    text: str
    timestamp: datetime
    username: Optional[str] = None
    department: Optional[str] = None
    position: Optional[int] = None
    has_quote: Optional[bool] = None
    forum_id: Optional[str] = None

    def __post_init__(self):
        if not self.id:
            raise DatasetError("comment id must be non-empty")
        if not self.text.strip():
            raise DatasetError(f"comment {self.id!r}: text is empty")
        if self.position is not None and self.position < 1:
            raise DatasetError(f"comment {self.id!r}: position must be >= 1")
        # timestamps are kept at minute precision
        ts = self.timestamp.replace(second=0, microsecond=0)
        object.__setattr__(self, "timestamp", ts)


@dataclass(frozen=True)
class LabelSet:
    """Subset of the five comment labels attached to one comment.

    ``NonMeta`` excludes everything else; any addressee label requires
    ``Meta``. A bare ``Meta`` (meta-comment without an assignable addressee)
    is valid, and so is the empty set (unlabeled comment).
    """

    labels: frozenset = frozenset()

    def __post_init__(self):
        labels = frozenset(self.labels)
        object.__setattr__(self, "labels", labels)
        unknown = labels - set(CLASS_ORDER)
        if unknown:
            raise DatasetError(f"unknown labels: {sorted(unknown)}")
        if LABEL_NONMETA in labels and len(labels) > 1:
            raise DatasetError("NonMeta excludes all other labels")
        if labels & set(ADDRESSEE_LABELS) and LABEL_META not in labels:
            raise DatasetError("addressee labels require the Meta label")

    @classmethod
    def of(cls, *labels: str) -> "LabelSet":
        return cls(frozenset(labels))

    @property
    def is_meta(self) -> bool:
        return LABEL_META in self.labels

    @property
    def addressees(self) -> tuple:
        return tuple(a for a in ADDRESSEE_LABELS if a in self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(sorted(self.labels, key=CLASS_ORDER.index))

    def __bool__(self) -> bool:
        return bool(self.labels)


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable list of (Comment, LabelSet) pairs from one source."""

    entries: tuple = ()
    source_tag: str = ""

    def __post_init__(self):
        entries = tuple((c, ls) for c, ls in self.entries)
        object.__setattr__(self, "entries", entries)
        seen = set()
        for c, _ in entries:
            if c.id in seen:
                raise DatasetError(f"duplicate comment id {c.id!r}")
            seen.add(c.id)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)

    def comments(self) -> Iterator[Comment]:
        return (c for c, _ in self.entries)

    def ids(self) -> set:
        return {c.id for c, _ in self.entries}

    def label_counts(self) -> dict:
        counts = {label: 0 for label in CLASS_ORDER}
        for _, ls in self.entries:
            for label in ls.labels:
                counts[label] += 1
        return counts


def _parse_timestamp(raw: str) -> datetime:
    try:
        return datetime.fromisoformat(raw)
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"invalid timestamp {raw!r}: {exc}") from None


# the types each field's non-null value may have
_FIELD_TYPES = {
    "id": (str, int), "text": (str,), "title": (str,), "department": (str,),
    "username": (str,), "forum_id": (str,), "position": (int,), "has_quote": (bool,),
    "labels": (list,),
}


def _record_to_entry(record: dict) -> tuple:
    if not isinstance(record, dict):
        raise DatasetError(f"expected a JSON object, got {type(record).__name__}")
    for key in ("id", "text", "timestamp"):
        if record.get(key) is None:
            raise DatasetError(f"missing field {key!r}")
    unknown = set(record) - set(_JSONL_KEYS)
    if unknown:
        raise DatasetError(f"unknown fields: {sorted(unknown)}")
    for key, expected in _FIELD_TYPES.items():
        value = record.get(key)
        # bool is a subclass of int, so isinstance alone would accept true/false
        if value is not None and (not isinstance(value, expected)
                                  or (isinstance(value, bool) and bool not in expected)):
            names = " or ".join(t.__name__ for t in expected)
            raise DatasetError(f"field {key!r} must be {names}, got {value!r}")
    if not all(isinstance(label, str) for label in record.get("labels") or ()):
        raise DatasetError(f"field 'labels' must hold strings, got {record['labels']!r}")
    comment = Comment(
        id=str(record["id"]),
        title=record.get("title", "") or "",
        text=record["text"],
        timestamp=_parse_timestamp(record["timestamp"]),
        username=record.get("username"),
        department=record.get("department"),
        position=record.get("position"),
        has_quote=record.get("has_quote"),
        forum_id=record.get("forum_id"),
    )
    labels = LabelSet(frozenset(record.get("labels") or ()))
    return comment, labels


def load_dataset(path, source_tag: Optional[str] = None) -> LabeledDataset:
    """Load and validate a comments-jsonl file (one JSON object per line).

    Raises DatasetError naming the offending line for any malformed record,
    wrongly typed field, byte that is not UTF-8, duplicate id, or
    label-invariant violation. An empty file is an error. A leading UTF-8
    byte-order mark is skipped.
    """
    path = Path(path)
    entries = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
                try:
                    entries.append(_record_to_entry(record))
                except DatasetError as exc:
                    raise DatasetError(f"{path}: line {lineno}: {exc}") from None
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: {utf8_error(path)}") from None
    if not entries:
        raise DatasetError(f"{path}: empty dataset")
    try:
        return LabeledDataset(tuple(entries), source_tag or path.stem)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _entry_to_record(comment: Comment, labels: LabelSet) -> dict:
    record = {
        "id": comment.id,
        "title": comment.title,
        "text": comment.text,
        "timestamp": comment.timestamp.strftime("%Y-%m-%dT%H:%M"),
    }
    for key in ("username", "department", "position", "has_quote", "forum_id"):
        value = getattr(comment, key)
        if value is not None:
            record[key] = value
    if labels:
        record["labels"] = list(labels)
    return record


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write a dataset as canonical comments-jsonl (UTF-8, LF line endings)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for comment, labels in ds:
            fh.write(json.dumps(_entry_to_record(comment, labels), ensure_ascii=False))
            fh.write("\n")


@dataclass(frozen=True)
class StatsReport:
    """Aggregate corpus statistics for one dataset."""

    source_tag: str
    n_comments: int
    label_counts: dict
    mean_title_words: Optional[float]
    mean_text_words: Optional[float]
    quote_share: Optional[float]
    department_counts: dict = field(default_factory=dict)

    def format_text(self) -> str:
        lines = [f"dataset: {self.source_tag}", f"comments: {self.n_comments}"]
        for label in CLASS_ORDER:
            lines.append(f"  {label}: {self.label_counts.get(label, 0)}")
        if self.mean_title_words is not None:
            lines.append(f"mean title words: {self.mean_title_words:.2f}")
            lines.append(f"mean text words: {self.mean_text_words:.2f}")
        if self.quote_share is not None:
            lines.append(f"quote share: {self.quote_share:.3f}")
        for dept in sorted(self.department_counts):
            lines.append(f"  department {dept}: {self.department_counts[dept]}")
        return "\n".join(lines)


def dataset_stats(ds: LabeledDataset) -> StatsReport:
    """Counts per label, mean title/text word lengths, quote share, departments.

    Means are over all comments (an empty title counts as zero words); the
    quote share is computed over comments where has_quote is present.
    """
    n = len(ds)
    title_words = [len(c.title.split()) for c in ds.comments()]
    text_words = [len(c.text.split()) for c in ds.comments()]
    quotes = [c.has_quote for c in ds.comments() if c.has_quote is not None]
    departments: dict = {}
    for c in ds.comments():
        if c.department is not None:
            departments[c.department] = departments.get(c.department, 0) + 1
    return StatsReport(
        source_tag=ds.source_tag,
        n_comments=n,
        label_counts=ds.label_counts(),
        mean_title_words=sum(title_words) / n if n else None,
        mean_text_words=sum(text_words) / n if n else None,
        quote_share=sum(quotes) / len(quotes) if quotes else None,
        department_counts=departments,
    )
