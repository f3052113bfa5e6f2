"""The library's failure contract, read off its source: a bad argument is
a ValueError, and each class of `adiclab.errors` is one way a caller
reacts, raised somewhere."""

import ast
import pathlib

import adiclab

SRC = pathlib.Path(adiclab.__file__).parent
ERROR_CLASSES = {"AdiclabError", "InputError", "ResourceCap", "ParseError",
                 "ColumnEnd"}
# the CLI's own signals to `main`, and argparse's type-error hook
CLI_RAISES = {"BadValue", "StdoutFailed", "argparse.ArgumentTypeError"}


def _raises(path):
    """Name of the class each raise statement in `path` raises."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield ast.unparse(exc)


def test_errors_module_defines_one_class_per_reaction():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    assert names == ERROR_CLASSES


def test_every_raise_is_a_value_error_or_a_library_class():
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        allowed = {"ValueError"} | ERROR_CLASSES
        if path.name == "cli.py":
            allowed |= CLI_RAISES
        for name in _raises(path):
            assert name in allowed, f"{path.name} raises {name}"
            raised.add(name)
    assert ERROR_CLASSES - raised == {"AdiclabError"}
