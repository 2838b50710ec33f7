"""The package's public surface: ``ccsk.__all__`` and where each name lives."""

import importlib
import pkgutil

import ccsk

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
