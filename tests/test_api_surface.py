"""Every public module-level function, class and constant in the package
is read.

A public name that no module of `ballistic` references (other than its own
definition and the `__init__` re-export) is API that nothing in the model
uses: either use it where the model does the same thing inline, or delete
it with its tests.  A constant is a module-level assignment to an UPPERCASE
name.  Names kept on purpose go in KEEP with a reason.
"""

import ast
from pathlib import Path

import ballistic

SRC = Path(ballistic.__file__).parent

KEEP = {
    # README promises optical-depth reports; the report states the claim
    # that each photon passes a small, constant number of components.
    "optical_depth_report",
    # span targets that perfbench installs by name; retire them with a
    # benchmark change that retargets those spans
    "sliding_window_match",
    "delivered_pairs",
    "matching_rmux",
}


def _names_read(node):
    """Names read as `name` or `x.name` anywhere below `node`."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _public_names(node):
    """Public names a top-level statement defines: a function, a class or
    the UPPERCASE targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [
            n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and n.id.isupper()
        ]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_is_read_by_the_package():
    top_level = [
        (p.stem, node, _names_read(node))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
        for node in ast.parse(p.read_text(), filename=str(p)).body
    ]
    public = [
        (module, node, name)
        for module, node, _refs in top_level
        for name in _public_names(node)
    ]
    unread = [
        f"{module}.{name}"
        for module, node, name in public
        if name not in KEEP
        and not any(name in refs for _m, other, refs in top_level if other is not node)
    ]
    stale = KEEP - {name for _m, _node, name in public}
    assert not stale, f"stale KEEP entries: {sorted(stale)}"
    assert not unread, f"public API that nothing in src/ballistic reads: {unread}"
