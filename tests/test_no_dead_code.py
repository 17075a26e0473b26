"""Every function, class and method of the package is used by the program.

A definition counts as used when its name is read (as a name, an
attribute or an import) somewhere in ``src/``, in ``bench/`` or in the
acceptance suite.  Unit tests do not count: code that only a unit test
calls is code the program never runs.  Matching is by name, so a method
shares its use with any attribute of the same name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spherereg"

# definitions kept for the unit tests that use them as references
TEST_REFERENCES = {
    "crf_energy": "the energy that the mean-field tests check descent on",
    "upsample_features": "the numpy oracle for conv.tape_upsample",
    "pool_features": "the numpy oracle for conv.tape_maxpool",
}


def _definitions():
    """(module, qualified name, name) of every top-level function and
    class and every non-dunder method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(path.stem, f"{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))]
    return out


def _used_names():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_is_used_by_the_program():
    used = _used_names()
    unused = [f"{module}.{qualname}"
              for module, qualname, name in _definitions()
              if name not in used and name not in TEST_REFERENCES]
    assert unused == []


def test_test_references_exist_and_are_unused_otherwise():
    defined = {name for _, _, name in _definitions()}
    assert set(TEST_REFERENCES) <= defined
    # an entry whose definition the program has come to use is stale
    assert not set(TEST_REFERENCES) & _used_names()
