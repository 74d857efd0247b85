"""THz RIS planning toolkit: bistatic link budget, required radar cross
section, aperture sizing, phase-profile synthesis with quantization,
far-field directivity, beam-squint bandwidth, and panel power estimates."""

from .aperture import (
    ApertureSpec,
    EfficiencyLedger,
    UnreachableGeometryError,
    element_count,
    pec_bound_check,
    rcs,
    solve_aperture_size,
)
from .core import (
    BROADSIDE,
    SPEED_OF_LIGHT,
    BistaticGeometry,
    Direction,
    Frequency,
    db_to_linear,
    dbm_to_watts,
    fraunhofer_distance,
    linear_to_db,
    watts_to_dbm,
    wavelength,
)
from .link_budget import (
    LinkReport,
    LinkScenario,
    ReceiverSpec,
    evaluate_link,
    received_power,
    required_rcs,
    required_rcs_for_target,
    required_snr_db,
    sensitivity,
    spreading_term,
)
from .power import PROFILES, TechnologyProfile, panel_power
from .radiation import (
    FrequencySpanError,
    GridResolutionError,
    QuantizationReport,
    SpherePattern,
    SquintReport,
    UVPattern,
    array_factor_direct,
    array_factor_fft,
    directivity,
    gain_at,
    hemisphere_power_exact,
    principal_plane_cut,
    quantization_loss,
    squint_sweep,
    squint_vs_angle,
)
from .surface import (
    CellStateTable,
    PhaseProfile,
    TaperSpec,
    UNIFORM_TAPER,
    UnitCellState,
    apply_cell_model,
    demo_cell_table,
    generate_codebook,
    quantize_profile,
    synthesize_profile,
)

__version__ = "0.1.0"
