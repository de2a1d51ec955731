"""Delay prediction for a lossy retransmitting wireless link.

Two analytic routes and one empirical route to packet-delivery delay:
mean delay through an equivalent lossless G/G/1 queue, tail bounds
through min-plus arrival/service curves, and a discrete-event simulator
for validating both.  The package exports each module's ``__all__``.
"""

from . import config, empirical, gg1, service_time, simulator, snc, traffic
from .config import *  # noqa: F401,F403
from .empirical import *  # noqa: F401,F403
from .gg1 import *  # noqa: F401,F403
from .service_time import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403
from .snc import *  # noqa: F401,F403
from .traffic import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({*config.__all__, *empirical.__all__, *gg1.__all__, *service_time.__all__,
                  *simulator.__all__, *snc.__all__, *traffic.__all__})
