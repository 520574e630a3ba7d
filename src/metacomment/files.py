"""JSON files, float arrays inside them, word lists and file digests, written
and read here. Read errors name the file."""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np


def write_json(path, data, indent: Optional[int] = None) -> None:
    """data as sorted UTF-8 JSON and a newline: one line through the C encoder
    without indent (model files), indent=2 for meta files and outputs."""
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(data, ensure_ascii=False, indent=indent, sort_keys=True) + "\n")


def read_json(path, fmt: Union[str, Sequence[str], None] = None):
    """The JSON object in path, tagged "format": fmt (or one of the formats
    fmt lists) if fmt is given; a leading UTF-8 byte-order mark is skipped.
    ValueError names the file for invalid JSON, a top-level value that is not
    an object, another format and a missing key at any depth."""
    class Record(dict):
        def __missing__(self, key):
            raise ValueError(f"{path}: missing key {key!r}")

    try:
        with open(Path(path), encoding="utf-8-sig") as fh:
            data = json.load(fh, object_pairs_hook=Record)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the top-level JSON value is not an object")
    found = data.get("format")
    formats = (fmt,) if isinstance(fmt, str) else fmt
    if formats is not None and found not in formats:
        raise ValueError(f"{path}: unsupported format {found!r}, "
                         f"expected {' or '.join(map(repr, formats))}")
    return data


# bool before int: the first type a value is an instance of names it
_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def json_typed(key: str, value, kind: type, nullable: bool = False):
    """value, if it is a kind (dict or list), or None where nullable.
    Otherwise TypeError names the key and the JSON type found; the reader
    of the file turns it into a ValueError naming the file."""
    if isinstance(value, kind) or nullable and value is None:
        return value
    found = next((name for t, name in _JSON_NAMES.items() if isinstance(value, t)),
                 type(value).__name__)
    raise TypeError(f"{key!r} must be {_JSON_NAMES[kind]}{' or null' if nullable else ''}, "
                    f"got {found}")


def encode_floats(a) -> dict:
    """a as {"dtype": "<f8", "shape": [...], "base64": ...}: its little-endian
    float64 bytes in C order, written without formatting a decimal."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_floats(value) -> np.ndarray:
    """The array of an encode_floats object, as a writable native float64
    copy with the stored bits. ValueError for another dtype, a shape that is
    not a list of sizes, invalid base64 or a byte count the shape does not
    hold."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an encoded array object, got {type(value).__name__}")
    # get(): a missing key reads as None, which each check below rejects
    dtype, shape = value.get("dtype"), value.get("shape")
    if dtype != "<f8":
        raise ValueError(f"dtype {dtype!r} is not '<f8' (float64)")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"shape {shape!r} is not a list of sizes")
    try:
        raw = base64.b64decode(value.get("base64"), validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError("invalid base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} bytes for shape {shape}, "
                         f"which holds {8 * math.prod(shape)}")
    return np.frombuffer(raw, "<f8").reshape(shape).astype(np.float64)


def _float_lists(value, ndim: int) -> bool:
    """Whether value is ndim levels of lists around JSON floats."""
    if ndim == 0:
        return type(value) is float
    return type(value) is list and all(_float_lists(v, ndim - 1) for v in value)


def float_array(path, key: str, value, ndim: int = 1, encoded: bool = True) -> np.ndarray:
    """The finite float64 array of ndim dimensions at key of the JSON file
    path: an encode_floats object, or with encoded=False nested lists of
    JSON floats. ValueError names the file and the key for another form,
    dtype or number of dimensions, and for a value that is not finite."""
    try:
        if encoded:
            a = decode_floats(value)
        elif _float_lists(value, ndim):
            a = np.array(value, dtype=np.float64)  # ValueError for ragged rows
        else:
            raise ValueError("is not " + " of ".join(["a list"] + ["lists"] * (ndim - 1))
                             + " of float64 numbers")
        if a.ndim != ndim:
            raise ValueError(f"expected {ndim} dimensions, got shape {list(a.shape)}")
        if not np.isfinite(a).all():
            raise ValueError("holds a value that is not finite")
    except ValueError as exc:
        raise ValueError(f"{path}: {key!r}: {exc}") from None
    return a


def read_fields(cls, record):
    """Dataclass cls from a read_json object: every field is read, others ignored."""
    return cls(**{field.name: record[field.name] for field in fields(cls)})


def read_lines(path) -> List[str]:
    """The stripped lines of a UTF-8 word list, but blank lines and '#'
    comments; a leading byte-order mark is skipped."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: {utf8_error(path)}") from None
    return [line for line in map(str.strip, lines) if line and not line.startswith("#")]


def utf8_error(path) -> str:
    """Where the file at path first breaks UTF-8, as "line N, byte M: ...",
    for a reader whose decoding failed: a text-mode file decodes a buffered
    chunk at a time, so its error tells neither the line nor the offset."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = raw.rfind(b"\n", 0, exc.start) + 1
        line = raw.count(b"\n", 0, line_start) + 1
        return (f"line {line}, byte {exc.start - line_start + 1}: 0x{raw[exc.start]:02x} "
                f"is not UTF-8 ({exc.reason})")
    return "not UTF-8"  # the file changed since the failed read


def hash_file(path) -> str:
    """The sha256 hex digest of the file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
