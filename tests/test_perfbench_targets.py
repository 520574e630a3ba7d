"""The benchmark is coupled to the package by name. The traced run looks up
package names by attribute: every (module, owner, attribute) in
perfbench/spans.py's TARGETS, and the keyword pattern compiler it wraps, must
exist, and the spans of the serving and evaluate paths must still be called.
perfbench/run.py calls subcommands with fixed flags, which the parser must
accept. Breaking either shows only in a benchmark run, so check them here."""

import argparse
import ast
import importlib
import types
from pathlib import Path

from metacomment.cli import build_parser, main
from metacomment.corpus import save_dataset

from synthdata import generate_comment_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"


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


def _span_calls(*commands) -> dict:
    """{span: calls} of running each argv in commands through main, traced."""
    spans = _load_spans()
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    try:
        instrumentation.install()
        for argv in commands:
            assert main(argv) == 0
    finally:
        instrumentation.remove()
    return {name: entry["calls"] for name, entry in tracer.summary().items()}


def _uncalled(calls: dict, expected) -> dict:
    return {name: calls.get(name, 0) for name in expected if not calls.get(name)}


def test_serving_path_spans_are_called(tmp_path):
    # a target that resolves but is no longer called records no span
    dataset = tmp_path / "dataset.jsonl"
    save_dataset(generate_comment_dataset(0, n_per_class=10, n_nonmeta=30), dataset)
    calls = _span_calls(
        ["train", "--input", str(dataset), "--two-step",
         "--params", "C=0.5,tolerance=0.001,max_epochs=50", "--out", str(tmp_path / "models")],
        ["classify", "--input", str(dataset), "--models", str(tmp_path / "models"),
         "--out", str(tmp_path / "classified")])
    expected = ("pipeline.two_step_fit", "features.fit_extractor", "classifiers.calibrate",
                "pipeline.save_extractor", "pipeline.load_extractor",
                "classifiers.load_model", "evaluation.two_step_classify",
                # the feature cache's columns, through the names the trace rebinds
                "features.regex", "features.text_stats", "features.metadata")
    assert _uncalled(calls, expected) == {}


def test_evaluate_path_spans_are_called(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    save_dataset(generate_comment_dataset(0, n_per_class=10, n_nonmeta=30), dataset)
    for kind in ("word", "doc"):
        assert main(["train-embeddings", "--input", str(dataset), "--kind", kind,
                     "--dim", "8", "--window", "2", "--min-count", "2", "--epochs", "2",
                     "--out", str(tmp_path / kind)]) == 0
    calls = _span_calls(
        ["evaluate", "--input", str(dataset), "-k", "3", "--select-k", "5",
         "--word-model", str(tmp_path / "word" / "model"),
         "--doc-model", str(tmp_path / "doc" / "model"), "--out", str(tmp_path / "eval")])
    expected = ("evaluation.cross_validate", "evaluation.stratified_k_fold",
                "evaluation.write_score_table", "features.fit_extractor", "features.anova",
                "features.semantic", "features.regex", "features.text_stats",
                "features.metadata", "pipeline.feature_fit", "pipeline.feature_predict",
                "classifiers.train", "classifiers.decide")
    assert _uncalled(calls, expected) == {}


def _benchmark_command_lines():
    """{subcommand: flags} over every runner.cli call in perfbench/run.py,
    read from its syntax tree without running it. Flags count whether given
    in the call, through module-level argument lists, or through the *args of
    a helper function that makes the call."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    sources = {target.id: [node.value] for node in tree.body
               if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    cli_calls = [c for c in calls
                 if isinstance(c.func, ast.Attribute) and c.func.attr == "cli"]
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.args.vararg \
                and any(c in cli_calls for c in ast.walk(fn)):
            sources[fn.args.vararg.arg] = [
                arg for c in calls if isinstance(c.func, ast.Name) and c.func.id == fn.name
                for arg in c.args]

    def flags(nodes, seen=()):
        found = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                        and sub.value.startswith("-"):
                    found.add(sub.value)
                elif isinstance(sub, ast.Name) and sub.id in sources and sub.id not in seen:
                    found |= flags(sources[sub.id], (*seen, sub.id))
        return found

    lines = {}
    for call in cli_calls:
        lines.setdefault(call.args[0].value, set()).update(flags(call.args[1:]))
    return lines


def test_benchmark_command_lines_parse():
    lines = _benchmark_command_lines()
    # the flags of the embed workload's helper and argument lists were followed
    assert {"--kind", "--method", "--dim", "--epochs", "--seed"} <= lines["train-embeddings"]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(lines) <= set(subparsers.choices)
    rejected = {command: sorted(flags - set(subparsers.choices[command]._option_string_actions))
                for command, flags in lines.items()}
    assert not any(rejected.values()), rejected
