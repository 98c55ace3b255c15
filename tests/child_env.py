"""The environment of every Python child process the tests start."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict[str, str]:
    """This process's environment with ``src/`` first on ``PYTHONPATH`` and without ``PYTHONUNBUFFERED``: a child's
    stdout to a pipe is then block-buffered, as a user's is, so a test sees a missing flush."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    return env
