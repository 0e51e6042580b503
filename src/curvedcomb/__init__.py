"""Differential capacitive transduction with curved comb electrodes.

Closed-form capacitance, bridge gain, and sensitivity for a one-axis
accelerometer cell whose fixed electrodes may be convex, concave, or
flat circular-arc profiles, plus numeric oracles that cross-check every
closed form (Gauss-Legendre quadrature on a graded mesh fixed in
advance, with a proved error bound per panel, and finite differences),
and sweep / optimization drivers over arc length.

Each public name is declared once, in the __all__ of the module that
defines it; the package re-exports the union of those lists.
"""

# set before the submodule imports: sweep echoes it in every result
__version__ = "0.1.0"

from . import capacitance, model, oracles, sweep, transduction
from .capacitance import *  # noqa: F403
from .model import *  # noqa: F403
from .oracles import *  # noqa: F403
from .sweep import *  # noqa: F403
from .transduction import *  # noqa: F403

__all__ = [
    *model.__all__,
    *capacitance.__all__,
    *oracles.__all__,
    *transduction.__all__,
    *sweep.__all__,
]
