"""Repository and distribution hygiene: bytecode caches never ship, and
the version has one source.

The latent failure mode: a ``__pycache__`` directory created by an
editable install or an interrupted test run gets committed (or swept
into an sdist), and suddenly the "pure source" artifact carries stale
interpreter-specific bytecode.  These tests pin the guards -- the
tracked tree is cache-free, ``.gitignore`` keeps it that way, and
``MANIFEST.in`` excludes caches from sdists.  CI's ``package`` job does
the expensive end-to-end check (build sdist + wheel, assert neither
archive contains a cache entry and both filenames carry
``repro.__version__``); see ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def _tracked_files() -> list[str]:
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        ["git", "ls-files"], cwd=REPO, capture_output=True, text=True, check=True
    )
    return proc.stdout.splitlines()


def test_no_bytecode_caches_are_tracked():
    # Component-wise, not substring: any tracked path that *is* or lives
    # under a ``__pycache__`` directory fails, as does any compiled
    # artifact regardless of where it hides.
    offenders = [
        path
        for path in _tracked_files()
        if "__pycache__" in pathlib.PurePosixPath(path).parts
        or path.endswith((".pyc", ".pyo", ".pyd"))
    ]
    assert offenders == []


def test_gitignore_covers_cache_and_build_artifacts():
    patterns = (REPO / ".gitignore").read_text().splitlines()
    for required in ("__pycache__/", "*.py[cod]", "dist/", "*.egg-info/"):
        assert required in patterns


def test_manifest_excludes_caches_from_sdists():
    manifest = (REPO / "MANIFEST.in").read_text()
    assert "global-exclude __pycache__" in manifest
    assert "*.py[cod]" in manifest


def test_source_tree_pycache_is_untracked_even_if_present():
    # __pycache__ dirs routinely exist on disk after running the suite;
    # git must be ignoring every one of them.
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        [
            "git",
            "status",
            "--porcelain",
            "--ignored=matching",
            "--untracked-files=all",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        check=True,
    )
    unignored = [
        line
        for line in proc.stdout.splitlines()
        if "__pycache__" in line and not line.startswith("!!")
    ]
    assert unignored == []


def test_version_has_one_source():
    # pyproject.toml reads the version from the package, so the built
    # distribution and ``repro.__version__`` cannot drift apart.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    dynamic = project["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "repro.__version__"}
