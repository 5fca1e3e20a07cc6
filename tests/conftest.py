import os
import subprocess
import sys

import pytest

import jacobiprior

SRC = os.path.dirname(os.path.dirname(os.path.abspath(jacobiprior.__file__)))


@pytest.fixture()
def fresh_python():
    """run(*argv, **env): ``python *argv`` in a new interpreter that imports the package
    under test, with ``env`` added to the environment; checks it exits 0 with an empty
    stderr and returns its stdout."""

    def run(*argv, **env):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, *argv],
            env={**os.environ, "PYTHONPATH": path, **env},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        return proc.stdout

    return run
