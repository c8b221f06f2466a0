"""The package root: numpy-free, with every public name resolved lazily from its module."""

import importlib
import types

import pytest

import entmoment
from entmoment import ledger, protocols, sampling, states


def test_every_root_name_is_the_object_its_module_defines():
    listed = dir(entmoment)
    for module, names in entmoment._EXPORTS.items():
        mod = importlib.import_module(f"entmoment.{module}")
        assert module in listed and getattr(entmoment, module) is mod
        for name in names.split():
            obj = getattr(entmoment, name)
            assert obj is getattr(mod, name), name
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == mod.__name__, name
            assert name in listed and name in entmoment.__all__, name


def test_root_vocabulary_is_shared_by_its_users():
    assert states.FAMILIES is entmoment.FAMILIES
    assert sampling.MODES is entmoment.MODES
    for name in ("QUOTED_TOMOGRAPHY_R", "ResourceLedger", "resource_ledger"):
        assert getattr(protocols, name) is getattr(ledger, name)


def test_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'ghz_state'"):
        entmoment.ghz_state  # noqa: B018
