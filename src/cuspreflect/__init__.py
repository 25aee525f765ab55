"""Reflection charts over an outward cusp boundary, their Jacobians, and
Sobolev extension-exponent experiments."""

from .errors import (
    ChartDomainError,
    EmptyRegionError,
    InterfaceError,
    WindowError,
)
from .extension import (
    ClampT,
    Constant,
    Direction,
    ExtensionSpec,
    PowerAlpha,
    cutoff_psi,
    extend_eval,
    extend_global_points,
    extend_gradient,
    extension_norm_experiment,
    holder_probe,
    membership_oracle,
)
from .geometry import (
    ChartId,
    CuspParams,
    Point,
    RegionLabel,
    Shell,
    classify,
    sample_region,
    shell_measure,
    shells,
)
from .reflections import (
    Jet,
    apply,
    differential,
    differential_fd,
    invert,
)
from .sobolev import (
    ShellSum,
    Verdict,
    convergence_verdict,
    distortion_integral,
    dual_exponent,
    p_min_r1,
    p_min_r2,
    p_star,
    predicted_shell_exponent,
    q_max_r1,
    q_max_r2,
    scaling_fit,
    sobolev_seminorm,
)

__version__ = "0.1.0"
