import predcorr


def test_public_names_resolve_once():
    names = predcorr.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(predcorr, name)]
    assert missing == []
    # nothing is exported twice under two names
    objects = [id(getattr(predcorr, name)) for name in names]
    assert len(objects) == len(set(objects))
    namespace = {}
    exec("from predcorr import *", namespace)
    assert set(names) <= set(namespace)
