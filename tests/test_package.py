import ast
import re
import sys
from pathlib import Path

import hilbchow


def test_every_exported_name_resolves():
    # a stale `__all__` entry otherwise fails only `from hilbchow import *`
    missing = [name for name in hilbchow.__all__ if not hasattr(hilbchow, name)]
    assert not missing
    assert len(set(hilbchow.__all__)) == len(hilbchow.__all__)


def test_only_fields_lifts_scalars_to_ints():
    # exact scalars become ints in one place, `fields.lift`, on the field that
    # `fields.field_of` names; a common denominator computed elsewhere is a
    # second lift
    src = Path(hilbchow.__file__).parent
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "fields.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"\.denominator\b|\blcm\b", line)]
    assert not found


def test_src_imports_only_the_standard_library():
    # the package is stdlib-only: every import is relative or names a module
    # that ships with Python
    src = Path(hilbchow.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not found


KEEP_ALIVE = "bench/tracing.py rebinds it by name"


def test_keep_alive_imports_are_only_rebound():
    # the traced benchmark rebinds the names in `bench/tracing.py`'s INNER
    # inside their modules, so a module may import one that it never calls;
    # such an import carries KEEP_ALIVE, names an INNER entry of its module
    # and is used nowhere else in it, and every imported INNER name the
    # module does not use carries the mark: the marked imports are exactly
    # those that go with the rebinding
    src = Path(hilbchow.__file__).parent
    tracing = ast.parse((src.parents[1] / "bench" / "tracing.py").read_text())
    inner = next(ast.literal_eval(node.value) for node in tracing.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "INNER")
    found = set()
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        rebound = {attr for module, attr, _ in inner if module == path.stem}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            marked = KEEP_ALIVE in "\n".join(lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name
                if marked:
                    assert name in rebound and name not in used, (path.name, name)
                    found.add((path.stem, name))
                else:
                    assert name in used or name not in rebound, (path.name, name)
    assert found == {("cyclic", "nullspace"), ("divpow", "parse_nc_poly"),
                     ("normpoints", "nc_eval"), ("normpoints", "solve_columns")}
