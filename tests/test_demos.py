"""Every demo runs and prints exactly what it printed when its digest was taken.

Each demo runs in a fresh interpreter with src/ on PYTHONPATH, as a reader
would run it; a changed digest is a change of what the demos show.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "01_permutations_and_groups.py": "683f0214ce37a72931f99e3611f4f580476800005ff6f02c64db2e2e419ee5b6",
    "02_graph_automorphisms.py": "be8dcc4bf7d43fbdd0a3ba5eae9a20236d2cd9c9eb1eb1249d77bcded460d091",
    "03_perception_pairs.py": "ecb9426c6934ed2755331689823406a8b38c2e0b22d246228d44b07c8c35f116",
    "04_orbits_and_permutants.py": "5e74b00a80ff19db9114dbaf1606ccab612a7e00669f0c9217aa9e3028ff1770",
    "05_operators.py": "09722844c8016f40c220fe43c7c88b832daf85ac69db0666682ef318e79d3859",
    "06_subgraph_codes.py": "667e85e26f5b9a0713ff5bc33717c340fc16cf4565568d370394b2eac1f06efa",
    "07_cycle_census.py": "272cb8b534955bab7afefaa1579e41aad25c76680661fdcec046f999d517224d",
    "08_measures_and_decomposition.py": "2f60cc6ffb0e086d74bfec0be7f11c1205b75a40e4d128ffa0bfd4542508d2d7",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_unchanged(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
