"""The package names that the benchmark under perfbench/ pins.

perfbench/tracer.py wraps each of its TARGETS by module and attribute name,
and the engine check and the worker import a few more.  A renamed one would
break only a benchmark run; these tests catch it first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from spincool import analysis, srmodel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_targets() -> tuple[tuple[str, str], ...]:
    # loaded by path, unedited; the module imports only the stdlib
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, attr", _tracer_targets())
def test_traced_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_engine_check_names():
    # perfbench/check_engine.py: hamiltonian(p), collapse_ops(p), op.matrix(n), qubit_vectors(r, 1.0)
    for fn in (srmodel.hamiltonian, srmodel.collapse_ops, srmodel.qubit_vectors,
               srmodel.CollapseOp.matrix, srmodel.ModelParams):
        assert callable(fn)
    p = srmodel.ModelParams()
    n = len(srmodel.hamiltonian(p))
    assert all(op.matrix(n).shape == (n, n) for op in srmodel.collapse_ops(p))
    assert len(srmodel.qubit_vectors(2.0, 1.0)) == 3


def test_worker_names():
    # perfbench/worker.py: analysis.table1_sweep(ModelParams(), ratios=ratios)
    assert callable(analysis.table1_sweep)
    inspect.signature(analysis.table1_sweep).bind(srmodel.ModelParams(), ratios=(1.0,))
