import loralab


def test_every_public_name_imports():
    namespace = {}
    exec("from loralab import *", namespace)
    assert set(loralab.__all__) <= set(namespace)
