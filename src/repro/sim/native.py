"""Loader for the run-ahead engine's compiled core (``_core.c``).

The core is a CPython extension that is
:meth:`SimulationEngine.run`: the drain loop and the whole miss path in
C, on the engine's own objects (see docs/architecture.md, "Compiled
core").  Without it there is no run-ahead loop:
:func:`repro.sim.factory.make_engine` builds the full-map run-ahead
configs as the bit-identical reference engine instead, and rejects the
other directory representations.

The module is built lazily, at the first :func:`core` call (the first
run-ahead engine selection or run, or the first :func:`status` query),
never at import.  It is compiled with
``sysconfig``'s ``CC`` (``$CC`` overrides it, as for any extension
build) against the running interpreter's headers, and cached where
Python caches bytecode: under ``sys.pycache_prefix`` when that is set,
else in this package's ``__pycache__/``.  The cached file is keyed by
the sha256 of the C source and the interpreter's ``EXT_SUFFIX`` and
installed with ``os.replace``, so concurrent workers that build at
once each load a complete module.  When no compiler is found, or the
build or load fails, :func:`core` returns None and :func:`status` says
why.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path
from types import ModuleType
from typing import Dict, List, Optional

SOURCE = Path(__file__).with_name("_core.c")

#: The loaded extension, or the reason there is none (one attempt per
#: process).
_module: Optional[ModuleType] = None
_reason: Optional[str] = None
_tried = False


def source_sha256() -> str:
    """sha256 of ``_core.c`` (recorded as run provenance)."""
    import hashlib

    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()


def cache_dir() -> Path:
    """Where the built module is cached: the bytecode cache location
    of this package."""
    package = SOURCE.parent.resolve()
    if sys.pycache_prefix:
        return Path(sys.pycache_prefix, *package.parts[1:])
    return package / "__pycache__"


def cached_path() -> Path:
    """The cache file for this source and interpreter.

    The interpreter's ``EXT_SUFFIX`` is read from the import system's
    extension suffixes (it is their first entry), not from
    ``sysconfig``: loading a cached core runs inside the first
    simulation of a process, and importing ``sysconfig`` with its
    config data would be most of that cost.
    """
    import hashlib
    from importlib.machinery import EXTENSION_SUFFIXES

    suffix = EXTENSION_SUFFIXES[0]
    key = hashlib.sha256(SOURCE.read_bytes() + suffix.encode()).hexdigest()
    return cache_dir() / f"_core-{key[:20]}{suffix}"


def _compiler() -> List[str]:
    import sysconfig

    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return cc.split()


class _BuildError(Exception):
    pass


def _build(target: Path) -> None:
    import subprocess
    import sysconfig

    cc = _compiler()
    # Look the compiler up before touching the filesystem, so a missing
    # compiler is reported as such even where the cache is unwritable.
    if not cc or shutil.which(cc[0]) is None:
        raise _BuildError("no C compiler")
    # Per-process temporary name next to the target, so the final
    # os.replace is atomic and concurrent builders never share a file.
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    flags = ["-shared", "-fPIC", "-O2", "-I" + sysconfig.get_path("include")]
    if sys.platform == "darwin":
        flags += ["-undefined", "dynamic_lookup"]
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [*cc, *flags, str(SOURCE), "-o", str(tmp)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            lines = [line.strip() for line in proc.stderr.splitlines() if line.strip()]
            first = lines[0] if lines else f"exit status {proc.returncode}"
            raise _BuildError(f"build failed: {first}")
        os.replace(tmp, target)
    except OSError as exc:
        raise _BuildError(f"build failed: {exc}") from None
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass


def _load(path: Path) -> ModuleType:
    import importlib.machinery
    import importlib.util

    name = "repro.sim._core"
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _expected_constants() -> Dict[str, object]:
    from repro.caches.finegrain import BLOCK_INVALID, BLOCK_READONLY, BLOCK_WRITABLE
    from repro.caches.l1 import EMPTY
    from repro.coherence.directory import OUT_INVAL_SHIFT
    from repro.coherence.states import EXCLUSIVE, INVALID, MODIFIED, OWNED, SHARED
    from repro.common.records import ADDR_SHIFT, THINK_MASK
    from repro.vm.page_table import MAP_CC, MAP_LOCAL, MAP_SCOMA, MAP_UNMAPPED

    return {
        "moesi": (INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED),
        "mapping": (MAP_UNMAPPED, MAP_LOCAL, MAP_CC, MAP_SCOMA),
        "tags": (BLOCK_INVALID, BLOCK_READONLY, BLOCK_WRITABLE),
        "addr_shift": ADDR_SHIFT,
        "think_mask": THINK_MASK,
        "out_inval_shift": OUT_INVAL_SHIFT,
        "empty": EMPTY,
    }



def _init() -> None:
    global _module, _reason, _tried
    _tried = True
    path = cached_path()
    try:
        if not path.exists():
            _build(path)
        try:
            module = _load(path)
        except ImportError:
            # A stale or truncated cache entry: rebuild it once.
            _build(path)
            module = _load(path)
        if dict(module.CONSTANTS) != _expected_constants():
            _reason = "encoding mismatch between _core.c and the Python modules"
        else:
            _module = module
    except _BuildError as exc:
        _reason = str(exc)
    except (ImportError, OSError) as exc:
        _reason = f"load failed: {exc}"


def core() -> Optional[ModuleType]:
    """The compiled core, building it on first use; None when off."""
    if not _tried:
        _init()
    return _module


def status() -> str:
    """``"active"``, or why the core is off (builds it if needed)."""
    core()
    return "active" if _module is not None else str(_reason)


def provenance() -> Dict[str, str]:
    """The core's status and source hash, for run manifests."""
    return {"status": status(), "source_sha256": source_sha256()}
