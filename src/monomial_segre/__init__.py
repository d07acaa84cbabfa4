"""Segre classes of monomial schemes from their lattice presentation.

Two independent pipelines: an exact Newton-region integral over a placing
triangulation, and a blow-up tower that principalizes the ideal and pushes
the divisor class back down.  Agreement of the two is the headline check.
"""

from .chow import (BlowupStep, ChowClass, LevelRing, base_ring, blow_up,
                   pullback_generators, pushforward, reduce_nils,
                   scheme_is_divisor, scheme_is_empty)
from .errors import (ClassificationError, DegenerateConfigurationError,
                     DimensionMismatchError, EmptyCenterError,
                     LevelMismatchError, MonomialSegreError,
                     NoAdmissibleCenterError, TowerDivergenceError)
from .lattice import (ExponentVector, MonomialPresentation, minimalize,
                      presentation, residual_split, support_cover_check)
from .polytope import (HalfSimplex, PointConfiguration, Triangulation, alpha,
                       classify_blowup_cells, complement_configuration, hvol,
                       lift_to_H, placing_triangulation)
from .principalize import TowerTrace, principalize, select_center
from .segre import (SegreResult, blowup_invariance_check,
                    residual_identity_check, segre_integral, segre_tower,
                    simplex_contribution, verify)
from .series import (LinearForm, TruncatedSeries, divide_one_plus,
                     graded_piece, reciprocal_one_plus, tensor_line)

__version__ = "0.1.0"
