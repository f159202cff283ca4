import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_driven_eigenoperators_demo():
    """The demo runs the analytic, monodromy and frequency-domain routes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "03_driven_eigenoperators.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    residuals = re.findall(r"F[+-] \(lambda = [+-]Omega\): (\S+)", proc.stdout)
    assert len(residuals) == 2, proc.stdout
    assert all(float(r) < 1e-6 for r in residuals), residuals
