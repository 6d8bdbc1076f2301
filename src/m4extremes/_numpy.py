"""numpy, loaded on first use: the spec-only paths never import it.

`np` is numpy's own module object, a `LazyLoader` placeholder in `sys.modules`
until the first attribute read runs numpy's `__init__` on it in place."""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
