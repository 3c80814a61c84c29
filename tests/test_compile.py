"""Every module of the package compiles without a warning.

A solver module is imported only by the ``ot`` subcommand that runs it,
so a ``SyntaxWarning`` in one (an invalid escape sequence, say) would
show only in that subcommand's runs.  Compiling each file here with
warnings as errors catches it whichever tests run.
"""

import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "otkit"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec",
                dont_inherit=True)
