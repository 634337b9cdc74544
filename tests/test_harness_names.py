"""The benchmark harness in perfbench/ reaches library names by attribute:
its tracer wraps them, and its run and kernel sections read them.  A name
the harness reaches that the library no longer has fails here, on every
Python, before any benchmark runs.  The harness files are read, never
changed."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import smdc.gf as gf

ROOT = Path(__file__).resolve().parent.parent


def _load(path, monkeypatch):
    """The module at `path`, in sys.modules under its file name for the
    test's duration, so that harness modules importing it find it."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_and_restores_the_imported_modules(monkeypatch):
    run = _load(ROOT / "perfbench" / "run.py", monkeypatch)
    tracing = _load(ROOT / "perfbench" / "tracing.py", monkeypatch)
    lib = SimpleNamespace(**{m: importlib.import_module(f"smdc.{m}") for m in run.MODULES})
    tr = tracing.Tracer()
    try:
        tr.install(lib)
        patched = list(tr._patched)
        for owner, attr, fn in patched:
            assert getattr(owner, attr) is not fn, attr
        # a wrapped name still answers, and its call is a span
        assert lib.gf.GF256.solve([[1, 0], [0, 2]], [5, 4]) == [5, 2]
        assert tr.totals()["gf.solve"][0] == 1
    finally:
        tr.restore()
    assert len(patched) > 10
    for owner, attr, fn in patched:
        assert getattr(owner, attr) is fn, attr


def test_the_run_and_kernel_sections_find_their_names(monkeypatch):
    tracing = _load(ROOT / "perfbench" / "tracing.py", monkeypatch)
    assert gf.backend() in ("pure", "compiled")
    mul, calls = gf.GF.mul, [0]
    with tracing.count_calls(gf.GF, "mul", calls):
        assert gf.GF256.mul(2, 0x80) == 0x1D
    assert calls == [1] and gf.GF.mul is mul
    bench_gf = _load(ROOT / "benchmarks" / "bench_gf.py", monkeypatch)
    kernel = _load(ROOT / "perfbench" / "kernel.py", monkeypatch)
    assert bench_gf.matmul_python is gf.matmul_python
    assert bench_gf._gfcore is gf._gfcore
    assert kernel.backends()["pure"] is gf.matmul_python
