"""The package's public surface: ``ccsk.__all__`` and where each name lives."""

import ast
import importlib
import pkgutil
from pathlib import Path

import ccsk

ROOT = Path(__file__).resolve().parent.parent

# Each public name and the module that defines it.
PUBLIC = {
    "CcskParams": "params",
    "RngState": "oracle",
    "assemble_generator": "params",
    "compose": "blockexp",
    "decompose": "decompose",
    "euler2_factorize": "blockexp",
    "exp_column_factor": "blockexp",
    "exp_k": "blockexp",
    "expm": "oracle",
    "frobenius_norm": "linalg",
    "k_matrix": "blockexp",
    "projector_form": "blockexp",
    "random_params": "oracle",
    "roundtrip_error": "decompose",
    "unitarity_defect": "linalg",
}


def test_all_is_the_public_names():
    assert ccsk.__all__ == list(PUBLIC)


def test_each_public_name_is_its_defining_modules_object():
    for name, module in PUBLIC.items():
        defining = importlib.import_module(f"ccsk.{module}")
        assert name in defining.__all__
        assert getattr(ccsk, name) is getattr(defining, name), name


def test_every_modules_all_resolves():
    # A name left in a submodule's __all__ after its definition is gone.
    for info in pkgutil.iter_modules(ccsk.__path__):
        module = importlib.import_module(f"ccsk.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"ccsk.{info.name}.{name}"


def test_blockexp_lists_the_reference_forms():
    names = {"euler2_factorize", "projector_form"}
    assert names <= set(importlib.import_module("ccsk.blockexp").__all__)


def test_no_unused_module_level_import():
    # Each name a module-level import binds is used in its module or listed
    # in its __all__ (__future__ imports aside).
    unused = []
    for path in sorted(p for d in ("src/ccsk", "tests", "bench") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.relative_to(ROOT)}:{node.lineno} {alias.asname or alias.name}"
                   for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []
