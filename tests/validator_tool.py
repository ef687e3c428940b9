"""``tools/validate.py`` loaded by path (it is a script, not a package)."""

from __future__ import annotations

import importlib.util
import os
from types import SimpleNamespace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "validate", os.path.join(REPO, "tools", "validate.py")
)
validate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validate)


def bound(kind: str, **checks) -> SimpleNamespace:
    """The tool's ``main`` fixed to one subcommand, next to its checks."""
    return SimpleNamespace(main=lambda argv: validate.main([kind, *argv]), **checks)
