import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import symsod

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each demo's stdout
STDOUT_DIGESTS = {
    "01_exceptional_collections.py": "2f6165aa6e8a1a46131eb94e99422346c906e260349aa0fa686ba1fd6f6d00bb",
    "02_hilbert_schemes.py": "7f07d6b3ea597231b7fe1da5276f0f928b901010aa4ee9481604109943c277d8",
    "03_coset_bookkeeping.py": "666a958a203dc5cebd049aa6d48e68041213cf313d03e52a4ab50a6f067b21f7",
}


def _run(demo: pathlib.Path) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(symsod.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)


def test_every_demo_runs():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        proc = _run(demo)
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
        assert proc.stdout.strip(), f"{demo.name} printed nothing"


@pytest.mark.parametrize("name", STDOUT_DIGESTS)
def test_demo_stdout_digest(name):
    proc = _run(DEMOS / name)
    assert proc.returncode == 0, f"{name}: {proc.stderr}"
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[name]
