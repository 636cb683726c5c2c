"""What the program defines is what the program uses.

Every top-level function and class of `src/imufill`, public or private,
and every private module-level constant must be referenced somewhere in
the program, that is in `src/imufill` or the benchmark's modules
(`perfbench/*.py` but its smoke test), outside its own definition. A name that only tests
reach is either dead code or belongs in the tests: a helper kept for a
test, or a second copy of a kernel left behind after its callers moved
to the first, fails here. The few exceptions are oracles that tests
check the program against.

The count of settable values (function parameters with a default plus
dataclass fields with a default) equals `MAX_SETTABLE_VALUES`, a
ratchet: a change that adds an option raises the bound on purpose, and
one that removes an option lowers it, so the bound always states the
count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "imufill"
PROGRAM = sorted(PACKAGE.rglob("*.py")) + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                                                  if not p.name.startswith("test_"))

# test oracles: kept for the tests, not run by the program
ORACLES = {"rotation_about", "gradcheck", "GradCheckReport", "load_report"}

MAX_SETTABLE_VALUES = 76


def _definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each top-level function and class, and of each
    private constant: a module-level assignment to a `_name`."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets
                      if isinstance(t, ast.Name) and t.id.startswith("_") and not t.id.startswith("__")]
    return found


def _references(node: ast.AST) -> set[str]:
    """Names, attributes, imported names and exact-name strings (as in a
    getattr table) anywhere in `node`."""
    found: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
    return found


def test_every_definition_is_used_by_the_program():
    modules = {path: ast.parse(path.read_text(), filename=str(path)) for path in PROGRAM}
    # the references of each top-level statement, so that a definition's
    # own body (recursion, a class naming itself) does not count
    uses = [(statement, _references(statement)) for module in modules.values() for statement in module.body]
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path, module in modules.items() if PACKAGE in path.parents
              for name, definition in _definitions(module)
              if name not in ORACLES
              and not any(name in refs for statement, refs in uses if statement is not definition)]
    assert not unused, "defined but used only by tests (or not at all):\n" + "\n".join(unused)


def test_oracles_are_still_defined():
    # an oracle that is gone should leave the exception list too
    defined = {name for path in PACKAGE.rglob("*.py") for name, _ in _definitions(ast.parse(path.read_text()))}
    assert ORACLES <= defined


def _settable_values(module: ast.Module) -> int:
    count = 0
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         and "ClassVar" not in ast.unparse(s.annotation) for s in node.body)
    return count


def test_settable_values_do_not_grow():
    count = sum(_settable_values(ast.parse(path.read_text())) for path in PACKAGE.rglob("*.py"))
    assert count == MAX_SETTABLE_VALUES, (
        f"{count} settable values in src/imufill, not {MAX_SETTABLE_VALUES}: give a new value one "
        "definition or raise the bound on purpose; after removing an option, lower the bound")
