"""Shared fixtures."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bankcover

_NOBODY = 65534
_CANNOT_DROP = 77  # the child's exit code when it cannot become ``nobody``


@pytest.fixture
def unprivileged():
    """Run a script in a child Python, in a directory, as a user that file
    modes bind.

    Root reads and writes a file whatever its mode, so a child started by
    root drops to the user and group ``nobody`` once it has imported what
    it needs, since the interpreter and the package may lie where that user
    cannot read.  The directory is opened to others, and the script names
    its files relative to it.  Returns the finished process; skips the test
    where root cannot drop to ``nobody`` (a user namespace without that
    user mapped, or without ``setgroups``).
    """

    def run(directory: Path, script: str) -> subprocess.CompletedProcess:
        directory.chmod(0o755)
        prelude = textwrap.dedent(f"""
            import locale, os  # argparse's messages import locale on first use
            import bankcover.cli, bankcover.tables
            os.chdir({str(directory)!r})
            if os.geteuid() == 0:
                try:
                    os.setgroups([])
                    os.setgid({_NOBODY})
                    os.setuid({_NOBODY})
                except OSError:
                    os._exit({_CANNOT_DROP})
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(bankcover.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(script)],
                              env=env, capture_output=True, text=True, timeout=120)
        if done.returncode == _CANNOT_DROP:
            pytest.skip("cannot drop root")
        return done

    return run
