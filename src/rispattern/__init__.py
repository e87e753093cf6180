"""Reradiation-pattern simulator and discrete optimizer for digitally
reconfigurable intelligent surfaces."""

from .alphabet import (
    Alphabet,
    ComplexCoefficient,
    DesignCriterion,
    builtin,
    builtin_names,
    constellation_stats,
    dump_alphabet,
    load_alphabet,
    uadp_set,
)
from .channel import (
    ChannelPair,
    field_sum,
    received_power,
    sinc,
)
from .core import (
    SPEED_OF_LIGHT,
    CosinePower,
    Isotropic,
    RisGeometry,
    Terminal,
    Wave,
    canonical_phase,
)
from .designer import (
    OptimizerReport,
    SurfaceConfig,
    design_diffuser,
    design_for_criterion,
    design_quantized,
    design_specular,
    design_uacp,
    design_uadp,
    design_uaep,
    is_coordinatewise_optimal,
    optimize_alternating,
)
from .pattern import (
    BeamMetrics,
    NearFieldRadiusWarning,
    PatternTrace,
    SweepSpec,
    check_sweep_radius,
    extract_metrics,
    far_field_radius,
    fraunhofer_distance,
    interference_study,
    rx_arc_position,
    sweep,
)
from .scenario import (
    Scenario,
    ScenarioDesign,
    ScenarioResult,
    design_scenario,
    parse_scenario,
    run_scenario,
)

__version__ = "0.1.0"
