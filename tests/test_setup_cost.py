"""Set-up cost of a command line call: ``import relbelief.cli`` must not load
``scipy.integrate`` or ``scipy.optimize`` (with the ``numpy.f2py`` chain they
bring in, about a third of the import), and post-data commands must never
need them; only the bias paths that integrate or search load them, on first
use.

The test runs in a fresh interpreter, because the pytest ``filterwarnings``
setting imports ``scipy.integrate`` into the test process itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli_golden import CASES, GOLDEN, LOCNORMAL, VERSIONS

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ["scipy.integrate", "scipy.optimize"]

# Runs each case of the JSON object on stdin with ``main`` in one process and
# prints which of LAZY were loaded after the import and after each case.
CHILD = r"""
import json, sys, tempfile
from pathlib import Path

from relbelief.cli import main

LAZY = ("scipy.integrate", "scipy.optimize")
loaded = lambda: [m for m in LAZY if m in sys.modules]
seen = {"import": loaded()}
for name, (command, config, extra) in json.load(sys.stdin).items():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "config.json")
        cfg.write_text(json.dumps(config))
        code = main([command, "--config", str(cfg), "--out", str(Path(tmp, "out")), *extra])
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(Path(tmp, "out").iterdir())}
    seen[name] = {"exit": code, "files": files, "loaded": loaded()}
print(json.dumps(seen))
"""

POST_DATA = [name for name in CASES if name.startswith(("analyze/", "assess/"))] + [
    "check/beta_binomial/exact",
    "check/finite/auto",
]
ESTIMATION = "bias/estimation/location_normal/auto"


def _in_fresh_interpreter(cases: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(cases), capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def test_quad_and_minimize_scalar_load_only_when_a_bias_needs_them():
    cases = {name: CASES[name] for name in POST_DATA}
    cases["check/location_normal/exact"] = ("check", {"bundle": LOCNORMAL, "data": {"xbar": 2.1}, "method": "exact"}, ())
    cases[ESTIMATION] = CASES[ESTIMATION]
    seen = _in_fresh_interpreter(cases)

    assert seen.pop("import") == []
    estimation = seen.pop(ESTIMATION)
    for name, result in seen.items():
        assert (name, result["exit"], result["loaded"]) == (name, 0, [])

    assert estimation["loaded"] == LAZY
    manifest = json.loads(estimation["files"]["run_manifest.json"])
    assert manifest.pop("versions") == VERSIONS
    estimation["files"]["run_manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    golden = json.loads(GOLDEN.read_text())[ESTIMATION]
    assert {"exit": estimation["exit"], "files": estimation["files"]} == golden
