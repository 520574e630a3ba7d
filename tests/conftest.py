import io
import json
from datetime import datetime

import pytest

from metacomment.corpus import Comment, LabeledDataset, LabelSet
from metacomment.files import decode_floats


def json_dump_bytes(data) -> bytes:
    """What json.dump(data, ensure_ascii=False, sort_keys=True) and a newline
    write to a UTF-8 file: the bytes every model file must have."""
    buffer = io.StringIO()
    json.dump(data, buffer, ensure_ascii=False, sort_keys=True)
    return (buffer.getvalue() + "\n").encode("utf-8")


def as_v1_model(data: dict) -> dict:
    """A metacomment-model/2 file's data in the /1 form older versions wrote:
    every encoded array as nested JSON lists."""
    for outer, key in (("standardizer", "mean"), ("standardizer", "std"),
                       ("payload", "w"), ("payload", "X")):
        if data[outer] is not None and key in data[outer]:
            data[outer][key] = decode_floats(data[outer][key]).tolist()
    return {**data, "format": "metacomment-model/1"}


def make_comment(cid="c1", title="", text="Hallo Welt.", **kwargs):
    kwargs.setdefault("timestamp", datetime(2016, 5, 2, 9, 30))
    return Comment(id=cid, title=title, text=text, **kwargs)


@pytest.fixture
def small_dataset():
    entries = (
        (make_comment("a1", title="Der Artikel", text="Guter Beitrag zum Thema.",
                      department="politik", position=1, has_quote=False),
         LabelSet.of("Meta", "Journalist")),
        (make_comment("a2", text="Die Redaktion sollte das korrigieren!",
                      department="politik", position=2, has_quote=True),
         LabelSet.of("Meta", "Media")),
        (make_comment("a3", text="Warum wurde mein Beitrag zensiert?",
                      department="wirtschaft", position=3, has_quote=True),
         LabelSet.of("Meta", "Moderator")),
        (make_comment("a4", text="Das Wetter war gestern besser.",
                      department="panorama", position=4, has_quote=False),
         LabelSet.of("NonMeta")),
    )
    return LabeledDataset(entries, source_tag="fixture")
