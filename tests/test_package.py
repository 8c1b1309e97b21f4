"""The package's public names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import protostream


def test_every_exported_name_resolves_once():
    names = protostream.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(protostream, n)] == []


def test_a_name_loads_only_its_module():
    """In a fresh interpreter, `import protostream` loads no layer module;
    the first use of a name loads the module that defines it and what that
    module imports."""
    script = """
import json, sys, protostream
def loaded():
    return sorted(m for m in sys.modules if m.startswith("protostream."))
before = loaded()
protostream.omega_score
print(json.dumps([before, loaded()]))
"""
    src = Path(protostream.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], ["protostream.errors", "protostream.metrics"]]
