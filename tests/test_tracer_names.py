"""The names the benchmark's tracer replaces must exist in pdwg.

perfbench/tracing.py replaces pdwg functions and methods by name, and
raises when one is gone; the benchmark's traced runs would then fail.
These tests fail first: every traced name resolves, and installing the
tracer replaces each binding and puts every one back.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def pdwg_bindings():
    """Every name bound in a loaded pdwg module."""
    return {(name, key): value for name, m in list(sys.modules.items())
            if m is not None and (name == "pdwg" or name.startswith("pdwg."))
            for key, value in vars(m).items()}


def test_every_traced_name_resolves(tracing):
    missing = [f"{module}.{attr}" for _, module, attr in tracing.TRACED_FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    missing += [f"{module}.{cls}.{attr}" for _, module, cls, attr in tracing.TRACED_METHODS
                if attr not in vars(getattr(importlib.import_module(module), cls, object))]
    assert missing == []


def test_installed_tracer_replaces_and_restores_every_name(tracing):
    import pdwg.cli  # noqa: F401  (the modules the tracer patches)
    import pdwg.linsolve as linsolve
    import pdwg.verify  # noqa: F401

    methods = []
    for _, module, name, attr in tracing.TRACED_METHODS:
        cls = getattr(sys.modules[module], name)
        methods.append((cls, attr, vars(cls)[attr]))
    before, splu, solve_sparse = pdwg_bindings(), spla.splu, linsolve.solve_sparse
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert linsolve.solve_sparse is not solve_sparse and spla.splu is not splu
        assert all(vars(cls)[attr] is not fn for cls, attr, fn in methods)
        linsolve.solve_sparse(sp.csc_matrix(np.diag([2.0, 4.0])), np.array([2.0, 4.0]))
    assert tracer.span_counts()["linsolve.solve"] == 1
    assert tracer.span_counts()["linsolve.factor"] == 1
    after = pdwg_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert all(vars(cls)[attr] is fn for cls, attr, fn in methods)
    assert spla.splu is splu
