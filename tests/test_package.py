"""
The package surface: goodsub republishes exactly its modules' __all__.

Each public name is declared once, in its module's __all__; the package
must export the union of those lists, each name as the module's own
object, with no name claimed by two modules.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import goodsub

MODULES = [
    importlib.import_module(f"goodsub.{name}")
    for name in ("certify", "cli", "csdecomp", "exceptions", "pluecker", "serialize", "stiefel", "worstcase")
]


def test_package_surface():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is exported by two modules"
    assert goodsub.__all__ == sorted(declared)
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"
            assert getattr(goodsub, name) is getattr(module, name), name
    assert goodsub.DEFAULT_FORM_BOUND is goodsub.pluecker.DEFAULT_FORM_BOUND
    assert goodsub.build_parser is goodsub.cli.build_parser


def test_import_leaves_numpy_random_unloaded():
    # haar_sample looks numpy.random up when it draws, so the CLI's
    # certificate commands and every import stay without its start-up
    # time and memory.
    src = str(Path(goodsub.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, goodsub; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
