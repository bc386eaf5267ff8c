import importlib

import pytest


@pytest.mark.parametrize("module", ["anytime_ab", "anytime_ab.simlab"])
def test_star_import_resolves_every_export(module):
    exported = importlib.import_module(module).__all__
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert sorted(set(exported)) == sorted(exported)
    assert [name for name in exported if name not in namespace] == []
