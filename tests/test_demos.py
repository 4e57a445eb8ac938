"""The demos run as scripts and print what they printed before.

Each digest is the SHA-256 of a demo's stdout, recorded before the
Moser-Tardos event scan was rewritten; any later change that moves a
printed number or a line has to show up here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_DIGESTS = {
    "01_base_graphs.py": "fffb426719e58276381066ab68a12ed7f119192325766e2706bb92c2b70722f1",
    "02_exact_solvers.py": "270b98adab4495247a7f907a9f432ca1b5f66db256b98d7102aafa32873a2998",
    "03_random_subgraphs.py": "87abc1bfa4ff6ed3cafe84f2412d12e0c9e18f6efa24167bed83697d5fd4d889",
    "04_local_lemma.py": "93752e042e59de78b49692b4a8649985c9c6550ccc81d929677572cf9225849b",
    "05_certified_search.py": "0825414102bc4459f7a8f4129ff78c12f23e3cedf4c3d26c3c6303df3963e53b",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_demo_stdout_is_pinned(name, tmp_path):
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, check=True, cwd=tmp_path, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_DIGESTS[name]
