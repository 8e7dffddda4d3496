"""Every exit-4 refusal goes through `errors.require`, whose limits live in
`errors` alone."""

import re
from pathlib import Path

import pytest

import hilbchow
from hilbchow.errors import BudgetExceededError, require

SOURCES = {path.name: path.read_text()
           for path in sorted(Path(hilbchow.__file__).parent.glob("*.py"))}


def test_budget_errors_are_raised_only_by_require():
    raises = [(name, m.start()) for name, text in SOURCES.items()
              for m in re.finditer(r"raise BudgetExceededError\b", text)]
    assert [name for name, _ in raises] == ["errors.py"]
    text = SOURCES["errors.py"]
    enclosing = re.findall(r"^def (\w+)", text[:raises[0][1]], re.M)
    assert enclosing[-1] == "require"
    assert sorted(name for name, text in SOURCES.items()
                  if "BudgetExceededError" in text) == ["__init__.py", "cli.py",
                                                        "errors.py"]


def test_each_limit_is_assigned_in_one_module():
    homes = {}
    for name, text in SOURCES.items():
        for const in re.findall(r"^(MAX_\w+) = ", text, re.M):
            homes.setdefault(const, []).append(name)
    assert homes["MAX_TABLE_WORDS"] == homes["MAX_ROOT_SCAN"] == ["errors.py"]
    assert all(len(modules) == 1 for modules in homes.values())


def test_require_accepts_the_limit_and_refuses_one_above():
    require(5, 5, "{} items")
    with pytest.raises(BudgetExceededError) as info:
        require(6, 5, "a table of {} items")
    assert str(info.value) == "a table of 6 items, more than the limit of 5"
