"""Every public name the package defines is read by the package.

A public name that no module of `ballistic` reads is API that nothing in
the model uses: either use it where the model does the same thing inline,
or delete it with its tests.  The names checked are the module-level
functions, classes and constants (assignments to an UPPERCASE name), and
the public methods, properties and annotated (dataclass) fields of those
classes.

A module-level name counts as read through its bare name elsewhere in its
own module, an attribute `.NAME` anywhere or a `from .module import NAME`;
a class member through an attribute `.name` anywhere.  The member check
matches names only, not the class they are read on: a method named like
a common attribute (`copy`, `sample`) passes through any read of that
attribute, numpy's `.copy()` included.  A name's own definition does
not count.  Names kept on purpose go in KEEP, as `name` or
`Class.member`, with a reason.

The package `__init__` binds `__version__` alone, so a public name cannot
be kept alive by a re-export there, and callers import the module they need.
"""

import ast
from pathlib import Path

import ballistic

SRC = Path(ballistic.__file__).parent

KEEP = {
    # a span target that perfbench installs by name (it reads
    # `sliding_window_match` and `delivered_pairs`); retire it with a
    # benchmark change that retargets those spans
    "matching_rmux",
    # the stream draw of that pair-list API, which its tests and the
    # multiplex golden's routing cases draw through; it goes with the API
    "PhotonStream.sample",
}


def _reads(node):
    """Bare names, attribute names and `(module, name)` relative imports
    read anywhere below `node`."""
    names, attrs, imports = set(), set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif isinstance(n, ast.ImportFrom) and n.level == 1:
            imports |= {(n.module, a.name) for a in n.names}
    return names, attrs, imports


def _public(names):
    return [name for name in names if not name.startswith("_")]


def _top_level_names(node):
    """Public names a top-level statement defines: a function, a class or
    the UPPERCASE targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return _public([node.name])
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return _public(
            n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and n.id.isupper()
        )
    return []


def _members(cls):
    """Public methods, properties and annotated fields of a class."""
    return _public(
        item.name if isinstance(item, ast.FunctionDef) else item.target.id
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        or isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    )


def test_every_public_name_is_read_by_the_package():
    top_level = [
        (p.stem, node, *_reads(node))
        for p in sorted(SRC.glob("*.py"))
        for node in ast.parse(p.read_text(), filename=str(p)).body
    ]
    attrs_read = set().union(*(attrs for *_, attrs, _imports in top_level))
    api = []  # (module, name spelt as in KEEP, read)
    for module, node, *_ in top_level:
        api += [
            (module, name, any(
                (m == module and name in names)
                or name in attrs
                or (module, name) in imports
                for m, other, names, attrs, imports in top_level
                if other is not node
            ))
            for name in _top_level_names(node)
        ]
        if isinstance(node, ast.ClassDef):
            api += [
                (module, f"{node.name}.{member}", member in attrs_read)
                for member in _members(node)
            ]
    stale = KEEP - {name for _module, name, _read in api}
    assert not stale, f"stale KEEP entries: {sorted(stale)}"
    unread = [
        f"{module}.{name}" for module, name, read in api
        if not read and name not in KEEP
    ]
    assert not unread, f"public API that nothing in src/ballistic reads: {unread}"


def test_package_binds_only_its_version():
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            bound |= {
                n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
    assert bound == {"__version__"}


def test_array_draws_go_through_bernoulli():
    """No module but `rng` compares `.random(shape)` itself: every Bernoulli
    array draw goes through `rng.bernoulli`, which keeps the draw and the
    stream position of `random(shape) < p` while skipping the uniforms where
    p fixes the outcome.  A scalar coin, `.random() < p`, is allowed."""
    inline = [
        f"{p.name}:{node.lineno}"
        for p in sorted(SRC.glob("*.py"))
        if p.name != "rng.py"
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Attribute)
        and node.left.func.attr == "random"
        and (node.left.args or node.left.keywords)
    ]
    assert not inline, f"array draws outside rng.bernoulli: {inline}"
