"""The ``hopfexact`` console script that ``pyproject.toml`` declares."""

import importlib
import re
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _console_script(name: str) -> str:
    """The ``module:function`` target of one ``[project.scripts]`` entry.

    Read with a regex, since Python 3.10 has no ``tomllib``."""
    text = PYPROJECT.read_text()
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text,
                        re.M | re.S)
    assert section is not None
    entry = re.search(rf'^{name}\s*=\s*"([^"]+)"', section.group(1), re.M)
    assert entry is not None
    return entry.group(1)


@pytest.mark.xfail(strict=True, raises=ModuleNotFoundError,
                   reason="the CLI module and its JSON run report have not "
                          "landed")
def test_cli_console_script_target_is_callable():
    module, _, attr = _console_script("hopfexact").partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
