import json
import os
import subprocess
import sys
from pathlib import Path

import oomscene

# the top-level modules that importing the package and its CLI adds, printed
# by a fresh interpreter so that modules this test process holds do not count
PROBE = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import oomscene, oomscene.cli
added = {name.partition(".")[0] for name in sys.modules} - before
print(json.dumps(sorted(added)))
"""


def test_numpy_is_the_only_runtime_dependency():
    source = str(Path(oomscene.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env=env, check=True).stdout
    added = set(json.loads(out))
    assert "oomscene" in added
    assert added - sys.stdlib_module_names <= {"numpy", "oomscene"}
