"""Numerical geometry of immersed submanifolds of flat and hyperbolic
ambient spaces: bending invariants, volume growth, ends, and the curvature
of extrinsic distance spheres.

The pipeline runs chart source text (or a catalog entry) through exact
first- and second-order jets, assembles a weighted mesh graph, and evaluates the
asymptotic invariants on it.  See the README for the command line front
end.
"""

from .catalog import (CATALOG, CatalogEntry, GroundTruth, RotationChart,
                      catalog_build, catalog_names)
from .curves import Curve
from .errors import (ConfigError, CriticalPointError, DegeneratePlaneError,
                     DomainError, EvaluationError, ExtGeoError, GeometryError,
                     HypothesisViolatedError, ParseError, SingularityError,
                     TruncationError)
from .exprchart import ChartBase, ChartSpec, parse_chart
from .immersion import (BENDING, FRAME, METRIC, PointGeometry, ambient_of,
                        extrinsic_sphere_curvature, grid_geometry,
                        hypersurface_principal_curvatures,
                        level_set_tangent_plane, point_geometry,
                        sectional_curvature)
from .invariants import (DecayProfile, DeltaModel, InvariantReport,
                         c_star_bisection, c_star_closed_form,
                         default_tail_radii, invariant_tails, kasue_bound,
                         kasue_closed_form, pinching_functions)
from .mesh import (EndsReport, MeshGraph, build_mesh, critical_free_radius,
                   ends_stability, mesh_dump)
from .spaceform import (Ambient, ambient_distance, c_kappa, euclidean,
                        geodesic, hyperbolic, lorentz_inner, model_volumes,
                        omega_m, s_kappa)
from .volumetrics import (GapReport, GrowthVerdict, VolumeCurve,
                          default_volume_radii, gap_ratio,
                          verify_growth_bounds, volume_curve)

__version__ = "0.1.0"
