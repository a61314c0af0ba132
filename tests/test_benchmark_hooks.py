"""The benchmark's traced run rebinds the names in ``perfbench/tracer.py``
``TRACED`` by ``getattr``; a refactor that removes or renames one breaks
``perfbench/run.py --trace 1``.  The tracer is loaded by path, because the
``perfbench`` directory is not a package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"krenergy.{layer}")
        for qual in names:
            owner, _, attr = qual.rpartition(".")
            scope = vars(getattr(module, owner)) if owner else vars(module)
            assert callable(scope.get(attr)), f"krenergy.{layer}.{qual}"
