"""Every hand-written tape node is finite-difference probed.

A function outside ``autodiff.py`` that builds a ``Tensor`` with parents
(``Tensor(value, parents, vjp)``) writes its own VJP.  Such a function
passes when a test that runs ``grad_check`` or ``check_registered_ops``
reads its name, or when an ``autodiff.OP_REGISTRY`` entry does.
Matching is by name, as in ``test_no_dead_code.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spherereg"
PROBES = {"grad_check", "check_registered_ops"}


def _reads(tree):
    """Every name read in ``tree``, as a name or an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _builds_node(call):
    """Whether ``call`` is ``Tensor(...)`` given parents or a VJP."""
    return _is_tensor(call) and (
        len(call.args) >= 2
        or any(k.arg in ("parents", "vjp") for k in call.keywords))


def _is_tensor(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "Tensor"


def _fused_nodes(source):
    """Names of the top-level functions and methods in ``source`` whose
    bodies build a tape node."""
    out = set()
    for node in ast.parse(source).body:
        defs = [node] if isinstance(node, ast.FunctionDef) else [
            item for item in getattr(node, "body", ())
            if isinstance(item, ast.FunctionDef)]
        out |= {d.name for d in defs
                if any(isinstance(c, ast.Call) and _builds_node(c)
                       for c in ast.walk(d))}
    return out


def _probed_names():
    names = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) \
                    and node.name.startswith("test") and _reads(node) & PROBES:
                names |= _reads(node)
    tree = ast.parse((PACKAGE / "autodiff.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "OP_REGISTRY" for t in node.targets):
            for pair in node.value.values:
                names |= _reads(pair.elts[0])
    return names


def test_every_hand_written_node_is_probed():
    fused = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "autodiff.py":
            fused |= _fused_nodes(path.read_text())
    # the check must see the nodes it guards
    assert {"rotation_message", "_gaussian_weights", "_aggregate",
            "_interpolate_warped", "similarity_loss", "smoothness_loss",
            "tape_maxpool", "tape_upsample", "soft_deform_tensor",
            "upsample_deformation_tensor"} <= fused
    assert sorted(fused - _probed_names()) == []


def test_fused_nodes_sees_nodes_not_leaves():
    source = (
        "def fused(a):\n"
        "    return Tensor(a.value, (a,), lambda g: (g,))\n"
        "def keyword(a):\n"
        "    return ad.Tensor(a.value, parents=(a,), vjp=lambda g: (g,))\n"
        "class Store:\n"
        "    def leaf(self, v):\n"
        "        return Tensor(v, name='w')\n"
        "    def method(self, a):\n"
        "        return Tensor(a.value, (a,), lambda g: (g,))\n"
    )
    assert _fused_nodes(source) == {"fused", "keyword", "method"}


def _vjp_tuples(source):
    """Lines of ``source`` where a ``Tensor(...)`` passes a tuple as its
    VJP."""
    lines = []
    for call in ast.walk(ast.parse(source)):
        if isinstance(call, ast.Call) and _is_tensor(call):
            given = call.args[2:3] + [k.value for k in call.keywords
                                      if k.arg == "vjp"]
            if any(isinstance(v, ast.Tuple) for v in given):
                lines.append(call.lineno)
    return lines


def test_every_node_passes_one_vjp():
    # a node's VJP is one function returning every parent's gradient, not
    # a tuple of per-parent functions
    assert _vjp_tuples("Tensor(a.value, (a,), (lambda g: g,))\n") == [1]
    assert _vjp_tuples("ad.Tensor(a.value, parents=(a,), vjp=(f, h))\n") \
        == [1]
    assert _vjp_tuples("Tensor(a.value, (a,), lambda g: (g,))\n") == []
    for path in PACKAGE.glob("*.py"):
        assert _vjp_tuples(path.read_text()) == [], path.name
