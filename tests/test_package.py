import realsnf


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from realsnf import *", namespace)
    assert set(realsnf.__all__) <= namespace.keys()
