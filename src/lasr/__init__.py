"""Spatial-temporal mapping of interface pressure recordings.

The package turns raw pressure-sensor movies into FDR-screened
significance maps of local change between two recording sessions.  The
stages are importable on their own:

``frames``
    Frame/movie containers, the movie text format, PGM/CSV map export.
``segmentation``
    Gaussian-mixture thresholding of sensor frames (EM + BIC + the
    misclassification-optimal cut between components).
``registration``
    Spatial self-registration of each frame to a canonical pose and
    temporal alignment of two movies by correlation lag.
``ssm``
    Rim padding, bivariate local-quadratic smoothing, t/p maps, and
    Benjamini-Hochberg / Benjamini-Yekutieli screening.
``synthgen``
    Synthetic phantom sessions with known ground truth.
``pipeline``
    The end-to-end run plus the ``lasr`` command line tool.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import errors, frames, segmentation, registration, ssm, synthgen, pipeline
from .errors import *
from .frames import *
from .segmentation import *
from .registration import *
from .ssm import *
from .synthgen import *
from .pipeline import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *frames.__all__, *segmentation.__all__, *registration.__all__,
           *ssm.__all__, *synthgen.__all__, *pipeline.__all__]
