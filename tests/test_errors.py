"""The exception hierarchy: every class is raised and public."""

import ast
import inspect
from pathlib import Path

import ggmsep
from ggmsep import errors


def _raised_names():
    names = set()
    for path in Path(ggmsep.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_and_exported():
    # an unreachable class lingers otherwise, as InvalidCandidates and
    # AllFitsFailed did
    classes = {
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.GgmError) and cls is not errors.GgmError
    }
    assert classes
    assert classes - _raised_names() == set()
    assert classes - set(ggmsep.__all__) == set()
    assert all(getattr(ggmsep, name) is getattr(errors, name) for name in classes)
