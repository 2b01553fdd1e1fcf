import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cylinder_mesh_tool_reproduces_bundled_files(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tools" / "make_cylinder_mesh.py"), str(tmp_path)],
                   check=True, capture_output=True)
    for ext in ("node", "ele", "edge"):
        want = (ROOT / "src" / "flowrom" / "data" / f"cylinder_coarse.{ext}").read_bytes()
        assert (tmp_path / f"cylinder_coarse.{ext}").read_bytes() == want, ext
