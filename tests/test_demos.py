import os
import pathlib
import subprocess
import sys

import symsod

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_every_demo_runs():
    src = str(pathlib.Path(symsod.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
        assert proc.stdout.strip(), f"{demo.name} printed nothing"
