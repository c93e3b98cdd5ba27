"""Numerical verification of length and Margulis-invariant identities
on one-holed-torus hyperbolic surfaces and their affine deformations."""

from .dualnum import DualScalar
from .errors import (InvalidCoords, MMLError, NonConvergence, NotHyperbolic,
                     RecursionMismatch)
from .identity_engine import SeriesReport, coeff_H, coeff_K, gap_D, margulis_residual, mcshane_sum
from .representation import (DeformationSpec, HoledTorusRep, TraceCoords,
                             attach_deformation, build_rep, validate_fuchsian)
from .sl2grp import DualMatrix2, commutator, compose, dual_trace, inverse, translation_length
from .torus_curves import CurveBin, CurveClass, christoffel_word, export_census

__version__ = "0.1.0"
