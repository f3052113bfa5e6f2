"""The library's failure contract, read off its source: a bad argument is
a ValueError, and each class of `adiclab.errors` is one way a caller
reacts, raised somewhere.  Refusals that no other test reaches are checked
here by their messages."""

import ast
import pathlib

import pytest

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


_XI = adiclab.seeded_ordering(3)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: adiclab.OrderedDiagram(((),)),
                 "level 1 has no vertices", id="diagram-empty-level"),
    pytest.param(lambda: adiclab.Shape(()), "empty shape", id="shape-empty"),
    pytest.param(lambda: adiclab.Shape(((1, 0), (1, 0))),
                 "target with no incoming edges", id="shape-no-incoming"),
    pytest.param(lambda: adiclab.orbit_coding(
        _XI, adiclab.unrank(_XI, adiclab.Vertex(3, 3), 5), 1, (2, 1)),
        "empty window", id="orbit-coding-window"),
    pytest.param(lambda: adiclab.alt_state(""), "empty word",
                 id="alt-state-empty"),
    pytest.param(lambda: adiclab.small_subshift_orderings()[0].to_json(),
                 "rule orderings have no JSON form", id="rule-to-json"),
    # parents are asked of interior vertices only
    pytest.param(lambda: _XI.parents(3, 0), "(3, 0) is not an interior vertex",
                 id="parents-row"),
    pytest.param(lambda: _XI.parents(0, 3), "(0, 3) is not an interior vertex",
                 id="parents-column"),
    pytest.param(lambda: _XI.parents(0, 0), "(0, 0) is not an interior vertex",
                 id="parents-root"),
])
def test_refusal_names_the_problem(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
