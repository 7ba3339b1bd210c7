"""Numerical laboratory for wideband near-field IRS beamforming in the THz band."""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    SPEED_OF_LIGHT,
    DegenerateGeometryError,
    EvaluationPlane,
    FrequencyGrid,
    IrsLayout,
    PanelPlaneWarning,
    Point3,
    Scene,
    SubsurfacePartition,
    delta_index,
    distance,
    element_position,
    fraunhofer_distance,
    link_angles,
    subsurface_center,
)
from .channel import (  # noqa: F401
    CascadedDecomposition,
    cascaded_decomposition,
    exact_los_channel,
    piecewise_channel,
)
from .beamforming import (  # noqa: F401
    BeamformerConfig,
    DlddDelayNetwork,
    PerElementDelayConfig,
    PhaseShiftConfig,
    SignConsistencyWarning,
    SignReport,
    cumulative_delay,
    dldd_design,
    narrowband_design,
    per_element_td_design,
    required_delay_range,
    required_subsurface_delays,
    sign_consistency_check,
    td_module_count,
)
from .metrics import (  # noqa: F401
    BeamPattern,
    achievable_rate,
    edge_gain,
    gain_profile,
    normalized_array_gain,
)
from .scenario import (  # noqa: F401
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
)
