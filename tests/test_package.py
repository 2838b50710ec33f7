"""The package's public surface: ``ccsk.__all__`` and where each name lives."""

import importlib

import ccsk

# Each public name and the module that defines it.
PUBLIC = {
    "CcskParams": "params",
    "Euler2Factors": "blockexp",
    "ProjectorPair": "blockexp",
    "RngState": "oracle",
    "anti_hermiticity_defect": "linalg",
    "assemble_generator": "params",
    "compose": "blockexp",
    "decompose": "decompose",
    "euler2_factorize": "blockexp",
    "exp_column_factor": "blockexp",
    "exp_k": "blockexp",
    "expm": "oracle",
    "frobenius_norm": "linalg",
    "k_matrix": "blockexp",
    "params_from_generator": "params",
    "projector_form": "blockexp",
    "random_params": "oracle",
    "roundtrip_error": "decompose",
    "unitarity_defect": "linalg",
}


def test_all_is_the_nineteen_public_names():
    assert ccsk.__all__ == list(PUBLIC)


def test_each_public_name_is_its_defining_modules_object():
    for name, module in PUBLIC.items():
        defining = importlib.import_module(f"ccsk.{module}")
        assert name in defining.__all__
        assert getattr(ccsk, name) is getattr(defining, name), name


def test_blockexp_lists_the_reference_forms():
    names = {"Euler2Factors", "ProjectorPair", "euler2_factorize", "projector_form"}
    assert names <= set(importlib.import_module("ccsk.blockexp").__all__)
