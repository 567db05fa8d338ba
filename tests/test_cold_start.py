"""Cold start: the entry points import neither scipy nor networkx.

scipy and networkx are imported inside the functions that use them, and the
package ``__init__`` modules resolve their exports lazily, so a process that
only parses arguments, serves the daemon or runs the window engine never
pays for either.  Every check runs in a fresh interpreter, because this
test process has long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy", "networkx")

#: Reports which of HEAVY the code before it left in ``sys.modules``.
_REPORT = f"""
import json, sys
print(json.dumps(sorted(name for name in {HEAVY!r} if name in sys.modules)))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result


def _heavy_loaded_after(code: str) -> list[str]:
    return json.loads(_python("-c", code + _REPORT).stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.service.server", "repro.streaming.pipeline"]
)
def test_import_leaves_scipy_and_networkx_unloaded(module):
    assert _heavy_loaded_after(f"import {module}") == []


def test_version_command_leaves_scipy_and_networkx_unloaded():
    # -X importtime names every module the process imports, on stderr
    result = _python("-X", "importtime", "-m", "repro", "--version")
    assert result.stdout.startswith("repro ")
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert "repro.cli" in imported
    assert sorted({name.split(".")[0] for name in imported} & set(HEAVY)) == []


def test_scenarios_register_the_builtin_catalogue_on_import():
    # list the catalogue before anything imports scenarios.builtin by name
    code = (
        "import repro.scenarios\n"
        "names = repro.scenarios.scenario_names()\n"
        "from repro.scenarios.builtin import BUILTIN_SCENARIO_NAMES\n"
        "assert set(BUILTIN_SCENARIO_NAMES) <= set(names), names\n"
        "assert 'flash-crowd' in names, names\n"
    )
    assert _heavy_loaded_after(code) == []


def test_lazy_exports_are_listed_before_first_use():
    packages = ["repro", "repro.analysis", "repro.campaigns", "repro.core", "repro.detect",
                "repro.experiments", "repro.generators", "repro.scenarios", "repro.streaming"]
    code = (
        "import importlib\n"
        f"for name in {packages!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    missing = set(package.__all__) - set(dir(package))\n"
        "    assert not missing, (name, sorted(missing))\n"
    )
    assert _heavy_loaded_after(code) == []


def test_every_lazy_export_resolves_to_its_defining_module():
    import repro.streaming as streaming
    from repro.streaming import pipeline

    assert streaming.analyze_trace is pipeline.analyze_trace
    assert "analyze_trace" in vars(streaming)  # cached after the first access
    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        streaming.not_an_export
