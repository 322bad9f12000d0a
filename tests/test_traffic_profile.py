"""The call recorder behind ``benchmarks/traffic_profile.py``.

One short script runs under the recorder; the report must list exactly the
functions no process called, whether the call happened in the main thread,
in a thread or in a forked child that leaves through ``os._exit``; and
``check`` must hold the uncalled functions to the listed ones.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """\
import os
import threading


def called():
    return 1


def called_in_thread():
    return 2


def called_in_child():
    return 3


class Box:
    @staticmethod
    def decorated():
        return 4


def never_called():
    def nested():
        return 5

    return nested()


called()
Box.decorated()
worker = threading.Thread(target=called_in_thread)
worker.start()
worker.join()
pid = os.fork()
if pid == 0:
    called_in_child()
    os._exit(0)
os.waitpid(pid, 0)
"""


def _tool():
    spec = importlib.util.spec_from_file_location(
        "traffic_profile", os.path.join(REPO, "benchmarks", "traffic_profile.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_reports_only_the_uncalled_function(tmp_path):
    tool = _tool()
    root = tmp_path / "code"
    root.mkdir()
    (root / "script.py").write_text(SCRIPT)
    out = str(tmp_path / "profile")
    result = tool.record([sys.executable, str(root / "script.py")], out, root=str(root))
    assert result.returncode == 0, result.stderr
    missing = tool.uncalled(str(root), tool.called(out))
    # nested() lives inside an uncalled function, so it is not listed again.
    assert [(function.qualname, function.lines) for function in missing] == [
        ("never_called", 5)
    ]
    assert "script.py" in tool.report(str(root), out)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """The tool, and the script's root and profile after one recorded run."""
    tool = _tool()
    root = tmp_path_factory.mktemp("code")
    (root / "script.py").write_text(SCRIPT)
    out = str(tmp_path_factory.mktemp("profile"))
    result = tool.record([sys.executable, str(root / "script.py")], out, root=str(root))
    assert result.returncode == 0, result.stderr
    return tool, str(root), out


def test_check_fails_on_an_unlisted_uncalled_function(recorded):
    tool, root, out = recorded
    assert tool.check(root, out, {}) == ["uncalled and not listed: script.py:never_called"]


def test_check_fails_on_a_stale_listed_entry(recorded):
    tool, root, out = recorded
    listed = {"script.py:never_called": "-", "script.py:called": "-", "script.py:gone": "-"}
    assert tool.check(root, out, listed) == [
        "listed but called: script.py:called",
        "listed but gone: script.py:gone",
    ]


def test_check_passes_when_every_uncalled_function_is_listed(recorded):
    tool, root, out = recorded
    assert tool.check(root, out, {"script.py:never_called": "an example"}) == []
