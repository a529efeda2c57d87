"""Repo-root test setup: the in-place compiled core, and collection
rules for the doctest leg.

Tier-1 runs from a checkout (``PYTHONPATH=src``), so it would test
the no-compiler fallback unless the optional C core is built next to
its sources.  When cffi and a C compiler are present, the core is
compiled in place (the outputs are gitignored) before any test
imports ``repro``, so the suite exercises the default that ships.  It
is rebuilt whenever ``_ccore_build.py`` is newer than the built
extension, and skipped when ``REPRO_CCORE_BUILD=0`` (the no-compiler
CI leg) or when the ``repro`` on the path is an installed copy rather
than this checkout's ``src``.  A failed build leaves the fallback
under test, exactly as on a host without a compiler.

For the doctest leg, ``pytest --doctest-modules src/repro/envelope``
collects library modules directly; on the no-numpy CI leg the
``flat*`` kernel modules cannot even import, so they are excluded here
(their doctests are numpy-only by definition).  Numpy-dependent
doctests in modules that *do* import without numpy (e.g.
``engine.py``) guard themselves with ``pytest.importorskip``.
"""

try:  # pragma: no cover - exercised implicitly on import
    import numpy  # noqa: F401

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy ships in the toolchain
    _HAVE_NUMPY = False

if not _HAVE_NUMPY:
    collect_ignore_glob = [
        "src/repro/envelope/flat*.py",
        "src/repro/envelope/packed.py",
    ]


def _build_ccore_in_place() -> None:
    import importlib.util
    import os
    import subprocess
    import sys
    from pathlib import Path

    flag = os.environ.get("REPRO_CCORE_BUILD", "1").strip().lower()
    if flag in ("0", "false", "off", "no"):
        return
    if importlib.util.find_spec("cffi") is None:
        return
    envelope = Path(__file__).resolve().parent / "src" / "repro" / "envelope"
    spec = importlib.util.find_spec("repro")
    if spec is None or spec.origin is None:
        return
    if Path(spec.origin).resolve().parent != envelope.parent:
        return  # an installed repro: its own build is under test
    script = envelope / "_ccore_build.py"
    built = list(envelope.glob("_repro_ccore*.so")) + list(
        envelope.glob("_repro_ccore*.pyd")
    )
    if any(b.stat().st_mtime >= script.stat().st_mtime for b in built):
        return
    subprocess.run(
        [sys.executable, str(script)],
        cwd=envelope.parent.parent,
        capture_output=True,
        timeout=600,
    )


_build_ccore_in_place()
