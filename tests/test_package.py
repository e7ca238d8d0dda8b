"""The package's top-level names."""
import trialmi


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from trialmi import *", namespace)
    assert set(trialmi.__all__) <= namespace.keys()
    assert len(set(trialmi.__all__)) == len(trialmi.__all__)
