"""Delay prediction for a lossy retransmitting wireless link.

Two analytic routes and one empirical route to packet-delivery delay:
mean delay through an equivalent lossless G/G/1 queue, tail bounds
through min-plus arrival/service curves, and a discrete-event simulator
for validating both.  The package exports each module's ``__all__``.

The model layer (config, empirical, gg1, traffic) is imported here.  The
numerics (service_time, simulator, snc) load on the first access of one
of their names (PEP 562).  Only the simulator imports numpy as it
loads; service_time and snc import it inside the functions that return
or draw arrays, so the service-time law and the tail bound run without it.
"""

from . import config, empirical, gg1, traffic
from .config import *  # noqa: F401,F403
from .empirical import *  # noqa: F401,F403
from .gg1 import *  # noqa: F401,F403
from .traffic import *  # noqa: F401,F403

__version__ = "0.1.0"

_NUMERICS = ("service_time", "simulator", "snc")


def __getattr__(name: str):
    """A submodule, a name of the numerics, or the package's ``__all__``, loaded on first access."""
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib.util

    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return importlib.import_module(f"{__name__}.{name}")
    numerics = [importlib.import_module(f"{__name__}.{module}") for module in _NUMERICS]
    if name == "__all__":
        value = sorted({*config.__all__, *empirical.__all__, *gg1.__all__, *traffic.__all__,
                        *(n for module in numerics for n in module.__all__)})
    else:
        module = next((m for m in numerics if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
