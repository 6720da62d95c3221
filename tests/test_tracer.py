"""The benchmark's tracer (``perfbench/spans.py``) wraps thermalbell's layer
functions from outside by replacing module attributes.  These tests keep
every name it wraps patchable and check that it puts each one back."""

import importlib
from pathlib import Path

import pytest

from thermalbell import analytic, bell, cli, correlate, fock, permanents, speckle, spkl
from thermalbell.sources import tls

OWNERS = (analytic, bell, cli, correlate, fock, permanents, speckle, spkl, spkl.SpklWriter)
FOCK_NAMES = ("thermal_state", "project_m", "cross_corr", "expect_gm1", "cm_coefficient")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("spans")


def _attributes() -> dict:
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_instrumented_patches_and_restores(spans):
    before = _attributes()
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        during = _attributes()
        fock.cm_coefficient(0.2, 1, 0.3)
    after = _attributes()

    patched = {name for (owner, name), value in during.items()
               if owner is fock and value is not before[(owner, name)]}
    assert set(FOCK_NAMES) <= patched
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_cm_coefficient_calls_traced_stages(spans):
    """``cm_coefficient`` reaches its stages through module globals, so the
    tracer sees one attempt per call."""
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        fock.cm_coefficient(0.2, 1, 0.3)
    assert [r["name"] for r in tracer.spans] == [
        "fock.cm_coefficient", "fock.thermal_state", "fock.project_m", "fock.cross_corr"]
    assert spans.layer_metrics(tracer.spans)["fock.cm_coefficient.attempts_per_call"] == 1.0


def test_permanent_traced_once_per_call(spans):
    """A size-16 permanent is worked in several blocks, none of them a call
    to ``permanent`` itself: the tracer sees one span."""
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        permanents.gm1_from_permanent(15, 0.4, 0.0, tls(1.0, 1.0))
    assert [r["name"] for r in tracer.spans] == [
        "permanents.gm1_from_permanent", "permanents.permanent"]
    assert tracer.spans[1]["n"] == 16
    assert spans.layer_metrics(tracer.spans)["permanents.permanent.calls"] == 1
