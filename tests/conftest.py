import os
import sys

import pytest

import circbridge


@pytest.fixture
def cli_env():
    """Environment for a `python -m circbridge` child process that imports
    the same circbridge as this process, installed or from a checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(circbridge.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name wherever a circbridge
    module binds it and returns the list of first arguments of every call
    made through the wrapper."""

    def count(module, name):
        original = getattr(module, name)
        args_seen = []

        def counted(*args, **kwargs):
            args_seen.append(args[0])
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "circbridge":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return args_seen

    return count
