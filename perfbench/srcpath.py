"""Import gsreg from this checkout's ``src`` tree, never from an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def use_checkout_src() -> None:
    """Put ``<repo>/src`` first on ``sys.path`` and check where gsreg loads from.

    Exits with a message (status 1) when the package sources are
    missing, so a benchmark directory copied without the program fails
    instead of measuring whatever ``gsreg`` happens to be installed.
    """
    if not (SRC / "gsreg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gsreg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gsreg

    loaded = Path(gsreg.__file__).resolve()
    if SRC not in loaded.parents:
        raise SystemExit(f"perfbench: gsreg loaded from {loaded}, expected under {SRC}")
