"""Every function the benchmark tracer times still exists in the package.

The tracer (``bench/tracer.py``) patches functions by name; a name that no
longer resolves would only fail a traced benchmark run, so it is checked here.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402


def _resolve(module: str, qual: str):
    owner = importlib.import_module(f"combtester.{module}")
    for attr in qual.split("."):
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("module,qual", tracer.TIMED + (("optim", "partial_trace"),))
def test_traced_name_resolves(module, qual):
    assert callable(_resolve(module, qual))
