"""Every name a module of the package imports is used there or exported."""

import ast
from pathlib import Path

import pytest

import qnlse

MODULES = sorted(Path(qnlse.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and neither reads nor lists
    in a literal ``__all__``, in the order they are imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_no_name_it_leaves_unused(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    # the kind of name a deletion leaves behind
    source = ("from .fields import as_sample, finite_exp\n"
              "import numpy as np\n"
              "__all__ = ['as_sample']\n"
              "x = np.ones(1)\n")
    assert unused_imports(source) == ["finite_exp"]
