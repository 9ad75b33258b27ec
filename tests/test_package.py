import ast
from pathlib import Path

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


SET_ROUTINES = {"unique", "intersect1d", "setdiff1d", "union1d", "in1d"}


def test_source_calls_no_numpy_set_routine():
    # numpy's set routines import numpy.ma on first call, about 1.2 MB of RSS
    found = []
    for path in sorted(Path(predcorr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in SET_ROUTINES:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name in SET_ROUTINES]
    assert found == []
