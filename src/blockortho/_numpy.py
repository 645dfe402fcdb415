"""numpy, executed on first use.

Exact builds run in Python integers and Fractions and never need numpy;
float builds, the quadrature checks and the zero scans do.  Executing
numpy's ``__init__`` costs most of this package's import time (130 to
170 ms of 230 to 290 ms by ``python -X importtime`` on a 2-vCPU x86-64
VM), so the modules bind ``np`` to the module object this helper makes
with the standard library's ``importlib.util.LazyLoader`` (the recipe of
the importlib documentation).  numpy executes at the first attribute
access, such as ``np.array``, and the object then is numpy itself.

When numpy is already in ``sys.modules`` (a caller imported it first), that
module is reused as it is, loaded or lazy.
"""

import importlib.util
import sys


def _lazy_import(name):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
