"""The traced benchmark run looks up package names by attribute: every
(module, owner, attribute) in perfbench/spans.py's TARGETS, and the keyword
pattern compiler it wraps, must exist. Renaming one breaks only the traced
run, so check the names here."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # compiled from the source text, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for module_name, owner, attr, span, _ in spans.TARGETS:
        target = importlib.import_module(f"metacomment.{module_name}")
        if owner is not None:
            target = getattr(target, owner, None)
        if target is None or not hasattr(target, attr):
            missing.append((module_name, owner, attr, span))
    assert not missing
    features = importlib.import_module("metacomment.features")
    assert callable(features.compile_keyword_pattern)
