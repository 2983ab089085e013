"""The benchmark's traced mode rebinds module-level names of the library.

Several modules keep a name only so that perfbench/tracer.py can wrap it,
so deleting one must fail here rather than in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores_every_name():
    tracer = _load_tracer()
    names = [(module, attr) for module, attr, _, _ in tracer._TARGETS]
    names.append((np.linalg, "cholesky"))
    before = {(m.__name__, attr): getattr(m, attr) for m, attr in names}
    t = tracer.Tracer()
    try:
        t.install()
        for m, attr in names:
            assert getattr(m, attr) is not before[m.__name__, attr], (m.__name__, attr)
    finally:
        t.uninstall()
    for m, attr in names:
        assert getattr(m, attr) is before[m.__name__, attr], (m.__name__, attr)


def test_psi_tables_fit_under_the_tracer():
    # the tracer wraps walk._PsiTable in a function, and a table's fit
    # checked the level below with isinstance against that name: TypeError,
    # so `table` failed in every traced benchmark run
    from polyspec import walk

    t = _load_tracer().Tracer()
    walk._psi_level.cache_clear()
    try:
        t.install()
        vals = walk._psi_level(3, 5)(np.linspace(0.0, 5.0, 11))
    finally:
        t.uninstall()
        walk._psi_level.cache_clear()
    assert np.all(np.isfinite(vals))
    assert [span[0] for span in t.spans].count("walk.psi_table") == 3
