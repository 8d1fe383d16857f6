"""Pinned training outputs: two chained epochs of the tiny model on the
16-sample tiny corpus, for coop and template prompts in float32 and float64.

Each epoch's initial and final dataset loss, batch losses and per-term batch
losses must match ``training_golden.json`` to a relative 1e-6 in float32 and
1e-12 in float64; BLAS kernels round float32 differently on other CPUs, so
the comparison is not by bytes. Regenerate the file, only when a change is
meant to alter what training computes, with

    PYTHONPATH=src python tests/test_training_golden.py
"""

import json
import pathlib

import numpy as np
import pytest

from sowa import numerics, training
from sowa.model import build_model
from sowa.synth import PatternSpec, synth_generate

from conftest import tiny_config

GOLDEN = pathlib.Path(__file__).with_name("training_golden.json")
CASES = [(kind, dtype) for kind in ("coop", "template") for dtype in ("float32", "float64")]
RTOL = {"float32": 1e-6, "float64": 1e-12}
EPOCHS = 2


def _epochs(samples, prompt_kind: str, dtype: str) -> list:
    """What ``EPOCHS`` chained epochs report, as plain floats."""
    with numerics.precision(dtype):
        model = build_model(tiny_config(prompt_kind=prompt_kind))
        state, out = None, []
        for seed in range(EPOCHS):
            report, state = training.train_epoch(
                model, samples, model.config.optim, seed=seed, state=state
            )
            out.append({
                "initial_loss": report.initial_loss,
                "final_loss": report.final_loss,
                "batch_losses": report.batch_losses,
                "batch_terms": report.batch_terms,
            })
    return out


def _flat(epochs: list) -> np.ndarray:
    values = []
    for epoch in epochs:
        values += [epoch["initial_loss"], epoch["final_loss"], *epoch["batch_losses"]]
        values += [t[name] for t in epoch["batch_terms"] for name in ("dice", "focal", "bce")]
    return np.array(values)


@pytest.mark.parametrize("prompt_kind,dtype", CASES)
def test_two_epochs_match_the_pinned_losses(tiny_corpus, prompt_kind, dtype):
    pinned = json.loads(GOLDEN.read_text())[f"{prompt_kind}-{dtype}"]
    got = _epochs(tiny_corpus.samples, prompt_kind, dtype)
    assert [len(e["batch_losses"]) for e in got] == [len(e["batch_losses"]) for e in pinned]
    np.testing.assert_allclose(_flat(got), _flat(pinned), rtol=RTOL[dtype], atol=0)


if __name__ == "__main__":
    corpus = synth_generate(PatternSpec(kind="mixed", seed=5), 16, image_size=32)
    golden = {f"{kind}-{dtype}": _epochs(corpus.samples, kind, dtype) for kind, dtype in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
