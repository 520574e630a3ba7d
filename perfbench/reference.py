"""A fixed reference pass that measures how fast the host runs right now.

On a shared host the speed of one process changes by tens of per cent for
seconds to minutes at a time, with its CPU time equal to its wall time: on a
2-core shared virtual machine single passes took 29-68 ms within five
minutes, and whole benchmark runs moved with them, which no median over a
run removes. The benchmark therefore times this pass before every set-up and
every timed operation, and scales the run's times by ``NOMINAL_S`` over the
median of all its passes: the time metrics read as seconds on a host where
one pass takes ``NOMINAL_S``.

The pass imitates the program's mix of work, so a change of host pace moves
both alike: small numpy gathers, products and ``np.add.at`` scatters, as in
the negative-sampling kernels, and pure-Python tokenising, dict counting and
regex matching, as in text preparation and feature assembly. Its inputs are
fixed; they depend neither on ``--seed`` nor on the package, so no change to
the program can change the pass.
"""

from __future__ import annotations

import re
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.05   # one pass on the reference host; the scale of the metrics
PASSES_BETWEEN = 3  # passes before every set-up and every timed operation

_ROWS, _DIM, _STEPS = 400, 32, 600
_rng = np.random.default_rng(0)
_W_IN = _rng.normal(0.0, 0.1, (_ROWS, _DIM))
_W_OUT = _rng.normal(0.0, 0.1, (_ROWS, _DIM))
_CONTEXTS = _rng.integers(0, _ROWS, (_STEPS, 4))
_TARGETS = _rng.integers(0, _ROWS, (_STEPS, 6))
_WORDS = [f"wort{i % 97}x{i % 13}" for i in range(600)]
_TEXT = " ".join(_WORDS[:120]) + " Liebe Redaktion, der Artikel ist gut."
_PATTERN = re.compile(r"\b(?:redaktion|artikel|zensur|wort1\w*)\b", re.IGNORECASE)


def _numpy_part() -> float:
    w_in, w_out = _W_IN.copy(), _W_OUT.copy()
    total = 0.0
    for rows, targets in zip(_CONTEXTS, _TARGETS):
        h = w_in[rows].mean(axis=0)
        scores = w_out[targets] @ h
        g = 1.0 / (1.0 + np.exp(-scores))
        g[0] -= 1.0
        total += float(np.logaddexp(0.0, scores).sum())
        np.add.at(w_out, targets, -0.01 * g[:, None] * h[None, :])
        np.add.at(w_in, rows, -0.0025 * (g @ w_out[targets]))
    return total


def _python_part() -> int:
    counts = {}
    found = 0
    for _ in range(300):
        for token in _TEXT.lower().replace(",", " ").replace(".", " ").split():
            counts[token] = counts.get(token, 0) + 1
        found += len(_PATTERN.findall(_TEXT))
    return found + sum(1 for c in counts.values() if c >= 3)


def one_pass() -> float:
    t0 = perf_counter()
    _numpy_part()
    _python_part()
    return perf_counter() - t0


class Pace:
    """Reference passes taken between the timed intervals of one run."""

    def __init__(self):
        self.passes = []

    def sample(self) -> None:
        self.passes.extend(one_pass() for _ in range(PASSES_BETWEEN))

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference-host seconds."""
        return NOMINAL_S / statistics.median(self.passes)
