"""The README cites library names as `module.name`; each must exist and be
public, so that private helpers and arguments stay out of the documented API."""
import importlib
import pkgutil
import re
from pathlib import Path

import cloudcolor

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = {module.name for module in pkgutil.iter_modules(cloudcolor.__path__)}
OTHER_NAMES = {"os", "pyproject"}  # the standard library's os and the file pyproject.toml
CITED = sorted(set(re.findall(r"`([a-z_]+)\.([A-Za-z_]+)[`(]", README)))


def test_every_cited_module_name_resolves():
    assert CITED, "the README cites no module.name"
    unknown = {module for module, _ in CITED} - MODULES - OTHER_NAMES
    assert not unknown, f"the README cites modules that cloudcolor lacks: {sorted(unknown)}"
    missing = [f"{module}.{name}" for module, name in CITED
               if module in MODULES and not hasattr(importlib.import_module(f"cloudcolor.{module}"), name)]
    assert not missing, f"the README cites names that do not resolve: {missing}"


def test_every_cited_module_name_is_public():
    private = [f"{module}.{name}" for module, name in CITED if module in MODULES and name.startswith("_")]
    assert not private, f"the README cites private names: {private}"
