"""Importing the package loads no third-party package beyond numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gsreg

SRC = str(Path(gsreg.__file__).resolve().parents[1])

# top-level names of the non-standard-library modules the imports add once
# numpy, with whatever helpers it loads itself, is in
PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import gsreg, gsreg.cli, gsreg.io, gsreg.data
tops = {k.split(".")[0] for k in set(sys.modules) - before}
print(json.dumps(sorted(tops - set(sys.stdlib_module_names))))
"""


def test_import_loads_nothing_beyond_numpy():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == ["gsreg"]
