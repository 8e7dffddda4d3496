import re
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
