"""Every function, class and method of the package is used by the program.

A definition counts as used when its name is read (as a name, an
attribute or an import) somewhere in ``src/``, in ``bench/`` or in the
acceptance suite.  Unit tests do not count: code that only a unit test
calls is code the program never runs.  Matching is by name, so a method
shares its use with any attribute of the same name.

A top-level function of ``autodiff`` (a tape op) counts as used only where
it is read as that module's: by bare name inside ``autodiff.py``, as an
attribute of the imported module (``ad.gather``) or imported by name, so
that ``np.exp`` does not keep an ``exp`` op alive.  Its builder entry in
``OP_REGISTRY``, which only the gradient sweep runs, does not count; the
registry's sample generators do.

An attribute, a dataclass field or a ``self.name`` that a method of the
class assigns, counts as read where its name is read as an attribute
(``x.name``, not an assignment to one) by the same program files; again
matching is by name.
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


def _attributes():
    """(qualified name, name) of every dataclass field and every
    ``self.name`` a method assigns, per class of the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = [item.target.id for item in node.body
                     if isinstance(item, ast.AnnAssign)
                     and isinstance(item.target, ast.Name)]
            names += [target.attr for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      for target in ast.walk(item)
                      if isinstance(target, ast.Attribute)
                      and isinstance(target.ctx, ast.Store)
                      and getattr(target.value, "id", None) == "self"]
            out += [(f"{node.name}.{name}", name)
                    for name in dict.fromkeys(names)]
    return out


def _program_files():
    return [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py"),
            ROOT / "tests" / "test_acceptance.py"]


def _used_names():
    names = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _registry_builders(tree):
    """Every node of the builder expressions of the ``OP_REGISTRY`` dict
    of (builder, sample generator) pairs in ``tree``."""
    return {id(inner)
            for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "OP_REGISTRY"
                    for t in node.targets)
            for pair in node.value.values
            for inner in ast.walk(pair.elts[0])}


def _tape_op_uses():
    """Names the program reads as ``autodiff``'s own."""
    used = set()
    for path in _program_files():
        tree = ast.parse(path.read_text())
        if path == PACKAGE / "autodiff.py":
            skip = _registry_builders(tree)
            used |= {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and id(node) not in skip}
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.rsplit(".", 1)[-1] == "autodiff":
                used |= {alias.name for alias in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                aliases |= {alias.asname or alias.name
                            for alias in node.names
                            if alias.name.rsplit(".", 1)[-1] == "autodiff"}
        used |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in aliases}
    return used


def test_every_definition_is_used_by_the_program():
    used, tape = _used_names(), _tape_op_uses()
    unused = [f"{module}.{qualname}"
              for module, qualname, name in _definitions()
              if name not in (tape if module == "autodiff"
                              and qualname == name else used)
              and name not in TEST_REFERENCES]
    assert unused == []


def test_every_attribute_is_read_by_the_program():
    read = {node.attr for path in _program_files()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and not isinstance(node.ctx, ast.Store)}
    assert [qualname for qualname, name in _attributes()
            if name not in read] == []


def test_test_references_exist_and_are_unused_otherwise():
    defined = {name for _, _, name in _definitions()}
    assert set(TEST_REFERENCES) <= defined
    # an entry whose definition the program has come to use is stale
    assert not set(TEST_REFERENCES) & _used_names()
