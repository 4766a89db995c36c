"""The paper's two example applications (Section 5) plus the extension
application (ring matrix multiplication, exercising Equation 2).

:func:`build_design` is the one place an app name picks LU or FW:
fault runs, campaign replicates, explain re-runs, the LU/FW Figure 9
comparison tasks and the CLI's ``lu``/``fw`` command all build through
it, and ask the design (never the app name) for anything app-specific.
"""

from typing import Any, Iterable, Optional

from ..machine.presets import ALL_PRESETS
from . import fw, lu, mm
from .fw import FwDesign
from .hybrid import Comparison, HybridDesign
from .lu import LuDesign

__all__ = [
    "Comparison",
    "HybridDesign",
    "build_design",
    "check_names",
    "fw",
    "lu",
    "mm",
]

#: The designs a fault policy can re-plan, by app name.
_DESIGNS = {"lu": LuDesign, "fw": FwDesign}


def check_names(apps: Iterable[str] = (), presets: Iterable[str] = ()) -> None:
    """Raise ``ValueError`` for the first unknown app or machine preset."""
    for app in apps:
        if app not in _DESIGNS:
            raise ValueError(f"unknown app {app!r}; expected one of {sorted(_DESIGNS)}")
    for preset in presets:
        if preset not in ALL_PRESETS:
            raise ValueError(f"unknown preset {preset!r}; available: {sorted(ALL_PRESETS)}")


def build_design(
    app: str, preset: str = "xd1", n: Any = None, b: Any = None, *, p: Optional[int] = None,
    k: Optional[int] = None,
) -> HybridDesign:
    """The ``app`` design on a machine preset (``p`` nodes if given).

    ``n``/``b`` default to the design's own (see :class:`LuDesign` and
    :class:`FwDesign`), ``k`` (the PE array size) to the device's.
    """
    check_names([app], [preset])
    factory = ALL_PRESETS[preset]
    spec = factory() if p is None else factory(p=p)
    return _DESIGNS[app](spec, int(n) if n else None, int(b) if b else None, k)
