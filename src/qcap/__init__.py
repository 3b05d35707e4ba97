"""qcap: numerical laboratory for condenser p-capacities, curve-family
moduli, and distortion of quasiconformal mappings on grid domains."""

__version__ = "0.1.0"

from .boundary import (
    ClusterSetEstimate,
    estimate_cluster_set,
    probe_strong_accessibility,
    sample_shell_continua,
)
from .capacity import (
    CapacityResult,
    RingBenchmark,
    SolverOptions,
    accessibility_lower_bound,
    calibrate_discretization,
    ring_capacity_exact,
    solve_capacity,
    solve_ring,
)
from .distortion import (
    DistortionReport,
    verify_capacity_inequality,
    verify_dual_inequality,
)
from .energy import EnergyParams, energy_gradient, energy_value
from .exceptions import (
    DegenerateError,
    DomainError,
    EmptySetError,
    GeometryError,
    QcapError,
    SingularityError,
    WindowError,
)
from .exponents import (
    ExponentPair,
    WindowClass,
    classify_window,
    dual_exponent,
    dual_exponents,
    super_window_upper_bound,
)
from .grid import (
    Annulus,
    Ball,
    Box,
    Complement,
    Condenser,
    GridDomain,
    Intersection,
    SphereShell,
    Union,
    diameter,
    make_ring_condenser,
    rasterize,
)
from .mappings import (
    Affine,
    DistortionCoefficient,
    Identity,
    JacobianData,
    MappedRegion,
    RadialPower,
    distortion_coefficient,
    pullback_condenser,
)
from .modulus import (
    CurveFamily,
    ModulusResult,
    check_hesse_shlyk,
    modulus_lower_bound,
    sample_radial_curves,
)
