"""The package namespace: ``__all__`` lists what ``__init__`` imports and no
submodule."""

import ast
import types

import prodtri


def _is_module(value) -> bool:
    return isinstance(value, types.ModuleType)


def test_all_holds_every_imported_name_and_no_module():
    with open(prodtri.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(public) == 80
    assert set(prodtri.__all__) == public
    assert not [name for name in prodtri.__all__ if _is_module(getattr(prodtri, name))]


def test_star_import_binds_no_module():
    ns: dict = {}
    exec("from prodtri import *", ns)
    assert "connect" in ns and "Triangulation" in ns
    assert not [name for name, value in ns.items() if _is_module(value)]
    assert _is_module(prodtri.phases)  # still reachable as an attribute
