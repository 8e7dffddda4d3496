import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hilbchow


def test_every_exported_name_resolves():
    # a stale `__all__` entry otherwise fails only `from hilbchow import *`
    missing = [name for name in hilbchow.__all__ if not hasattr(hilbchow, name)]
    assert not missing
    assert len(set(hilbchow.__all__)) == len(hilbchow.__all__)


def test_lazy_package_keeps_its_api():
    # `import hilbchow` loads no submodule, yet `dir` lists every export, a
    # submodule is an attribute, and `import *` binds every name in `__all__`
    code = ("import hilbchow, sys\n"
            "print(sorted(m for m in sys.modules if m.startswith('hilbchow.')))\n"
            "print(sorted(set(hilbchow.__all__) - set(dir(hilbchow))))\n"
            "print(hilbchow.linalg is sys.modules['hilbchow.linalg'])\n"
            "ns = {}\n"
            "exec('from hilbchow import *', ns)\n"
            "print(sorted(n for n in hilbchow.__all__ if ns.get(n) is not "
            "getattr(hilbchow, n)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(hilbchow.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout == "[]\n[]\nTrue\n[]\n"


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hilbchow.no_such_name
    with pytest.raises(ImportError):
        from hilbchow import no_such_name  # noqa: F401


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


def test_only_divided_powers_read_block_pairs_directly():
    # keyed block lines go through `Block.tables`, which refuses a key read
    # twice; only a divided-power block, a sum of its `term` lines, reads
    # `Block.pairs` itself
    src = Path(hilbchow.__file__).parent
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(src.glob("*.py"))
             if path.name not in ("_tokens.py", "divpow.py")
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if ".pairs(" in line]
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


def test_sweep_has_one_relation_test():
    # `count_range` tests relations column by column and cyclicity at e_1 on
    # vector codes, through the memoised image tables; a whole-matrix word
    # product, a mat-vec or `word_basis` beside them would be a second test
    tree = ast.parse((Path(hilbchow.__file__).parent / "counting.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"word_sum", "word_product", "mat_vec", "word_basis"}


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
