"""``repro.graphs.defense`` is the submodule; the function is ``defense_pattern``.

The ``defense`` *function* registers as ``defense_pattern`` because its
natural name belongs to the submodule; the scenario registry still resolves
the ``defense`` spec name as an alias.  These tests pin both halves.
"""

import importlib
import warnings

import pytest

import repro.graphs
from repro.scenarios import REGISTRY_ALIASES, get_generator

defense_module = importlib.import_module("repro.graphs.defense")


class TestSubmoduleAttribute:
    def test_attribute_is_the_submodule(self):
        assert repro.graphs.defense is defense_module
        assert repro.graphs.defense.defense is repro.graphs.defense_pattern

    def test_submodule_import_is_unaffected_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            module = importlib.import_module("repro.graphs.defense")
        assert module.defense is defense_module.defense

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.graphs.definitely_not_a_generator


class TestRegistryAliasResolution:
    def test_both_names_resolve_to_the_same_generator_info(self):
        assert REGISTRY_ALIASES["defense"] == "defense_pattern"
        assert get_generator("defense") is get_generator("defense_pattern")

    def test_canonical_entry_wraps_the_real_function(self):
        info = get_generator("defense")
        assert info.name == "defense_pattern"
        assert info.func is defense_module.defense
