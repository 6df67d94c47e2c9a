"""Every public module-level function and class in `src/mfcp` has a caller
outside the tests: in `src/`, `demos/` or `perfbench/`. The `cmd_*`
functions count as called, since the CLI dispatches them by name."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mfcp")
# how perfbench names a traced function, e.g. "nn.forward"
QUALIFIED = re.compile(r"^\w+\.(\w+)$")


def python_files(*dirs):
    for d in dirs:
        for base, _, names in os.walk(os.path.join(ROOT, d)):
            yield from (os.path.join(base, n) for n in sorted(names) if n.endswith(".py"))


def names_used(tree, skip=None):
    """Identifiers that `tree` reads, imports or spells as "module.name"."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = QUALIFIED.match(node.value)
            if match:
                used.add(match.group(1))
    return used - {skip}


def test_no_public_name_in_src_is_called_only_by_tests():
    defined, used = {}, set()
    for path in python_files("src", "demos", "perfbench"):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and path.startswith(PACKAGE) and not node.name.startswith("_"):
                defined[node.name] = os.path.relpath(path, ROOT)
            # a definition's own body does not count as a caller of it
            used |= names_used(node, node.name if is_def else None)
    assert len(defined) > 50
    unused = sorted(f"{path}: {name}" for name, path in defined.items()
                    if name not in used and not name.startswith("cmd_"))
    assert not unused, "public names no code outside tests/ uses:\n" + "\n".join(unused)
