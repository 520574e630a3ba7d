"""JSON files, word lists and file digests, written and read here. Read
errors name the file."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import List, Optional


def write_json(path, data, indent: Optional[int] = None) -> None:
    """data as sorted UTF-8 JSON and a newline: one line through the C encoder
    without indent (model files), indent=2 for meta files and outputs."""
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(data, ensure_ascii=False, indent=indent, sort_keys=True) + "\n")


def read_json(path, fmt: Optional[str] = None):
    """The JSON object in path, tagged "format": fmt if fmt is given. ValueError
    names the file for invalid JSON, a top-level value that is not an object,
    another format and a missing key at any depth."""
    class Record(dict):
        def __missing__(self, key):
            raise ValueError(f"{path}: missing key {key!r}")

    try:
        with open(Path(path), encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=Record)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the top-level JSON value is not an object")
    found = data.get("format")
    if fmt is not None and found != fmt:
        raise ValueError(f"{path}: unsupported format {found!r}, expected {fmt!r}")
    return data


def read_fields(cls, record):
    """Dataclass cls from a read_json object: every field is read, others ignored."""
    return cls(**{field.name: record[field.name] for field in fields(cls)})


def read_lines(path) -> List[str]:
    """The stripped lines of a UTF-8 word list, but blank lines and '#' comments."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return [line for line in map(str.strip, lines) if line and not line.startswith("#")]


def hash_file(path) -> str:
    """The sha256 hex digest of the file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
