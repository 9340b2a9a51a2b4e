"""Building and loading the compiled run-ahead core.

The core is built lazily into the bytecode cache (``sys.pycache_prefix``
when set).  These tests build it in fresh interpreters pointed at an
empty cache, so they exercise the real compiler path: concurrent cold
builds, and a compiler that fails (run-ahead runs then fall back to the
reference engine).
"""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.sim import native, simulate

from tests.conftest import tiny_config

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs two tiny simulations and prints the core's status, its cache
#: file and the results.
SCRIPT = """
import json
from repro.common.records import Access
from repro.sim import native, simulate
from tests.conftest import tiny_config

traces = [[Access(0, True, 1), Access(512, False, 0), Access(64, True, 0)],
          [Access(512, True, 2), Access(0, False, 1)]]
results = [simulate(tiny_config(p), [list(t) for t in traces]).to_json_dict()
           for p in ("ccnuma", "rnuma")]
print(json.dumps({"status": native.status(), "path": str(native.cached_path()),
                  "results": results}))
"""


def _spawn(cache: Path, **env_overrides) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(SRC.parent)])
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(env_overrides)
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc: subprocess.Popen):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1]), err


def _expected_results():
    from repro.common.records import Access

    traces = [
        [Access(0, True, 1), Access(512, False, 0), Access(64, True, 0)],
        [Access(512, True, 2), Access(0, False, 1)],
    ]
    return [
        simulate(tiny_config(p), [list(t) for t in traces]).to_json_dict()
        for p in ("ccnuma", "rnuma")
    ]


@pytest.mark.usefixtures("native_path")
def test_concurrent_cold_builds_load_one_valid_module(tmp_path):
    procs = [_spawn(tmp_path) for _ in range(2)]
    outs = [_finish(p)[0] for p in procs]
    assert [o["status"] for o in outs] == ["active", "active"]
    assert outs[0]["path"] == outs[1]["path"]
    built = Path(outs[0]["path"])
    assert built.is_file() and tmp_path in built.parents
    # One module, no temp files left behind by either builder.
    assert [p.name for p in built.parent.glob("_core*")] == [built.name]
    assert outs[0]["results"] == outs[1]["results"] == _expected_results()


def test_failing_compiler_falls_back_with_one_warning(tmp_path):
    """Both runs go to the reference engine, warning once, and their
    results (run-ahead config included) are the core's."""
    out, err = _finish(_spawn(tmp_path, CC="false"))
    assert out["status"].startswith("build failed")
    warnings = [line for line in err.splitlines() if "RuntimeWarning" in line]
    assert len(warnings) == 1, err
    assert "compiled run-ahead core unavailable (build failed" in warnings[0]
    assert "running the reference engine" in warnings[0]
    assert all(r["config"]["engine"] == "runahead" for r in out["results"])
    assert out["results"] == _expected_results()
    # Nothing was installed into the cache.
    assert not list(tmp_path.rglob("_core-*"))


def _fresh_loader(monkeypatch, target: Path) -> None:
    """Make the next core() call build into ``target``, in process."""
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_reason", None)
    monkeypatch.setattr(native, "cached_path", lambda: target)


def test_missing_compiler_is_reported(monkeypatch, tmp_path):
    target = tmp_path / "cache" / "_core.so"
    _fresh_loader(monkeypatch, target)
    monkeypatch.setenv("CC", "no-such-compiler-anywhere")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.core() is None
    assert native.status() == "no C compiler"
    # The compiler is looked up before the cache directory is made.
    assert not target.parent.exists()


def test_unwritable_cache_is_a_build_failure(monkeypatch, tmp_path):
    monkeypatch.delenv("CC", raising=False)
    if shutil.which(native._compiler()[0]) is None:
        pytest.skip("no C compiler to fail the build with")
    # A regular file where the cache directory should be: making the
    # directory fails whatever the user's privileges.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    _fresh_loader(monkeypatch, blocker / "cache" / "_core.so")
    assert native.core() is None
    assert native.status().startswith("build failed: ")


def _run_script(cache: Path, script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(SRC.parent)])
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.usefixtures("native_path")
def test_provenance_builds_the_core_before_any_run(tmp_path):
    out = _run_script(
        tmp_path,
        "import json\n"
        "from repro.obs.provenance import provenance_block\n"
        "from repro.sim import native\n"
        "core = provenance_block()['native_core']\n"
        "print(json.dumps({'core': core, 'path': str(native.cached_path())}))\n",
    )
    assert out["core"] == {"status": "active", "source_sha256": native.source_sha256()}
    assert Path(out["path"]).is_file() and tmp_path in Path(out["path"]).parents


@pytest.mark.usefixtures("native_path")
def test_loading_a_cached_core_imports_no_sysconfig(tmp_path):
    # The first eligible run of every process pays the load; sysconfig
    # and its config data would be most of it.
    script = (
        "import json, sys\n"
        "before = 'sysconfig' in sys.modules\n"
        "from repro.sim import native\n"
        "active = native.core() is not None\n"
        "print(json.dumps({'active': active, 'before': before,"
        " 'after': 'sysconfig' in sys.modules}))\n"
    )
    _run_script(tmp_path, script)  # cold: builds with sysconfig's CC
    out = _run_script(tmp_path, script)
    assert out["active"]
    assert out["after"] == out["before"]


def test_cache_key_uses_the_interpreters_ext_suffix():
    import sysconfig

    assert native.cached_path().name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
