"""Self-conformal sets, Gibbs measures, certified measure geometry, and
seeded counting experiments.

The package is organized in layers:

``symbolic``
    Finite words over the alphabet and points of the ambient space.
``ifs``
    Contracting map families (affine, Moebius, planar similarities), the
    open-set check, and the shipped example systems.
``gibbs``
    Measures on the coding space: Bernoulli weights, closed-form densities,
    and transfer-operator spectral fixed points with certified residuals;
    exact joint cylinder masses and mixing coefficients off level tables.
``dynamics``
    The induced map, seeded symbol-block sampling, window projection of
    orbits, and exact correlations of cylinder indicators.
``measure``
    Certified ball / annulus / region measure brackets, radius ladders, and
    doubling and decay probes.
``experiments``
    Shrinking-target and recurrence counting runs, residual normalization,
    pairwise quasi-independence checks, product systems, and the named
    analyses ("7.1", "7.2", "ABB", "B.2").
``cli``
    The ``selfconformal`` command: config-driven runs emitting
    ``results.csv`` / ``summary.json`` / ``config_echo.json``.
"""

from .dynamics import (
    correlation,
    project_windows,
    sample_symbol_block,
    t_apply,
)
from .experiments import (
    Checkpoint,
    CountingRecord,
    NAMED_EXAMPLES,
    ProductBackend,
    ProductSystem,
    RateFit,
    bc_residual,
    cylinder_event_crosscheck,
    default_checkpoints,
    fit_exponential_rate,
    gasket_tangency_doubling_bracket,
    pairwise_independence_check,
    product_cube_mixing,
    product_mixing_bound,
    product_system,
    records_to_rows,
    recurrence_modified_run,
    recurrence_pure_run,
    run_named_example,
    shrinking_target_run,
    summarize_records,
    write_results_csv,
)
from .gibbs import (
    BernoulliBackend,
    BernoulliPotential,
    ClosedFormDensityPotential,
    ConformalPowerPotential,
    DensityBackend,
    EigenReport,
    SpectralBackend,
    cylinder_measure,
    eigen_solve,
    mixing_coeff_cylinders,
    verify_gibbs_property,
)
from .ifs import (
    Affine1D,
    Box,
    IfsSystem,
    Moebius1D,
    Similarity2D,
    apply_word,
    builtin_system,
    check_osc,
    system_from_json,
    system_to_json,
)
from .measure import (
    AnnulusRegion,
    BallRegion,
    CertificationError,
    ConstantRadius,
    IntersectRegion,
    MeasureBracket,
    PowerLogRadius,
    PowerRadius,
    StripRegion,
    annulus_measure,
    ball_measure,
    cantor_cdf_bracket,
    density_ratio_series,
    doubling_ratio,
    hyperplane_decay_probe,
    region_measure,
    t_n_radius,
)
from .symbolic import FiniteWord, PointRd, as_point, word

__version__ = "0.1.0"

__all__ = [
    "Affine1D",
    "AnnulusRegion",
    "BallRegion",
    "BernoulliBackend",
    "BernoulliPotential",
    "Box",
    "CertificationError",
    "Checkpoint",
    "ClosedFormDensityPotential",
    "ConformalPowerPotential",
    "ConstantRadius",
    "CountingRecord",
    "DensityBackend",
    "EigenReport",
    "FiniteWord",
    "IfsSystem",
    "IntersectRegion",
    "MeasureBracket",
    "Moebius1D",
    "NAMED_EXAMPLES",
    "PointRd",
    "PowerLogRadius",
    "PowerRadius",
    "ProductBackend",
    "ProductSystem",
    "RateFit",
    "Similarity2D",
    "SpectralBackend",
    "StripRegion",
    "annulus_measure",
    "apply_word",
    "as_point",
    "ball_measure",
    "bc_residual",
    "builtin_system",
    "cantor_cdf_bracket",
    "check_osc",
    "correlation",
    "cylinder_event_crosscheck",
    "cylinder_measure",
    "default_checkpoints",
    "density_ratio_series",
    "doubling_ratio",
    "eigen_solve",
    "fit_exponential_rate",
    "gasket_tangency_doubling_bracket",
    "hyperplane_decay_probe",
    "mixing_coeff_cylinders",
    "pairwise_independence_check",
    "product_cube_mixing",
    "product_mixing_bound",
    "product_system",
    "project_windows",
    "records_to_rows",
    "recurrence_modified_run",
    "recurrence_pure_run",
    "region_measure",
    "run_named_example",
    "sample_symbol_block",
    "shrinking_target_run",
    "summarize_records",
    "system_from_json",
    "system_to_json",
    "t_apply",
    "t_n_radius",
    "verify_gibbs_property",
    "word",
    "write_results_csv",
]
