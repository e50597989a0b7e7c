import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from golden import mismatches, run_pipeline

ROOT = Path(__file__).resolve().parents[1]


def test_every_pipeline_output_matches_its_golden_digest(tmp_path):
    digests = run_pipeline(str(tmp_path))
    assert mismatches(digests) == []


def _other_interpreters() -> dict[tuple[int, int], str]:
    """One runnable CPython 3.10+ per minor version other than this one's.

    Candidates are python3.N on PATH, then ~/.pyenv/versions/3.N.*/bin/python3,
    each taken for the version its name gives. One that cannot run `-c pass`
    (a pyenv shim for a version that is not selected) is dropped.
    """
    candidates = []
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isdir(directory):
            for name in sorted(os.listdir(directory)):
                match = re.fullmatch(r"python3\.(\d+)", name)
                if match:
                    candidates.append((int(match[1]), os.path.join(directory, name)))
    for path in sorted(Path.home().glob(".pyenv/versions/3.*/bin/python3")):
        match = re.match(r"3\.(\d+)", path.parts[-3])
        if match:
            candidates.append((int(match[1]), str(path)))
    found: dict[tuple[int, int], str] = {}
    for minor, candidate in candidates:
        version = (3, minor)
        if minor < 10 or version == sys.version_info[:2] or version in found:
            continue
        if not os.access(candidate, os.X_OK):
            continue
        probe = subprocess.run([candidate, "-c", "pass"], capture_output=True, check=False)
        if probe.returncode == 0:
            found[version] = candidate
    return found


def test_golden_digests_match_under_every_other_interpreter():
    # float sums differ between versions (3.12's sum() is compensated), so the
    # digests are checked under each other CPython 3.10+ that can be found
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10+ on PATH or under ~/.pyenv/versions")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    failures = []
    for version, python in sorted(interpreters.items()):
        run = subprocess.run(
            [python, str(ROOT / "tests" / "golden.py")],
            env=env, cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if run.returncode != 0:
            failures.append(f"{python} ({version[0]}.{version[1]}):\n{run.stdout}{run.stderr}")
    assert not failures, "\n".join(failures)
