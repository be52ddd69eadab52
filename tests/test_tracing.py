"""perfbench/tracing.py against the package it wraps: every traced name is a
function of its layer, and installing spans and restoring them leaves every
binding as it was.  A rename of a traced function fails here, not in a traced
benchmark run.  Nothing here times anything."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import petersen_alpha

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _traced_names():
    return [(layer, fname) for layer, fnames in tracing.LAYER_FUNCTIONS.items() for fname in fnames]


def _bindings() -> dict[tuple[str, str], object]:
    """Every function bound in a loaded petersen_alpha module, by (module, attribute)."""
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "petersen_alpha" or name.startswith("petersen_alpha."))
            for attr, value in vars(mod).items() if inspect.isfunction(value)}


def _same(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(after[key] is value for key, value in before.items())


def test_layer_functions_resolve():
    for layer, fname in _traced_names():
        home = importlib.import_module(f"petersen_alpha.{layer}")
        assert inspect.isfunction(getattr(home, fname, None)), f"{layer}.{fname}"


def test_identity_install_and_restore_keep_every_binding():
    before = _bindings()
    tracing.install(lambda name, fn: fn)()
    assert _same(before, _bindings())


def test_install_rebinds_and_restore_undoes():
    before = _bindings()
    calls: list[str] = []

    def wrap(name, fn):
        def spanned(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return spanned

    restore = tracing.install(wrap)
    try:
        for layer, fname in _traced_names():
            home = importlib.import_module(f"petersen_alpha.{layer}")
            assert getattr(home, fname).__name__ == "spanned", f"{layer}.{fname}"
        # best_bounds reaches the closed form and the lower bounds through
        # their module names, so the spans (and the closed-form hits) see them
        petersen_alpha.bounds.best_bounds(16, 4)
        assert [name for name in calls if name.startswith("bounds.")] == [
            "bounds.best_bounds", "bounds.exact_closed_form", "bounds.lower_bounds"]
    finally:
        restore()
    assert _same(before, _bindings())
