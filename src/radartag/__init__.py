"""Link-level simulator and decoders for tag backscatter over coded radar pulses.

A dual-function radar source repeats a coded pulse over a frame; a tag
flips the sign of the resulting reverberation once per pulse interval; a
reader sees the superposition of the tag-modulated and direct components
and recovers both messages and both multipath channels.  The package
provides the codebook constructions with their identifiability checks,
frame synthesis, the pilot-free and pilot-aided decoder families, and a
seeded Monte Carlo harness.
"""

from .channel import (
    conv_matrix_from_channel,
    conv_matrix_from_code,
    response_vector,
    sample_channel,
)
from .codebooks import (
    DEFAULT_GOLD_PAIR,
    PilotTableRow,
    SourceCodebook,
    TagCodebook,
    WaveformQuality,
    check_pilot_conditions,
    check_source_separability,
    check_tag_separability,
    gen_gold,
    gen_tag_codebook,
    pilot_table,
    waveform_quality,
)
from .errors import (
    BudgetExceededError,
    ConfigInvalidError,
    DimensionMismatchError,
    EmptyCodebookError,
    InfeasibleDimensionsError,
    NotPreferredPairError,
    OddLengthError,
    PilotConditionViolatedError,
    RadarTagError,
    RateTooLargeError,
    SingularSystemError,
    TooManyTapsError,
    UnsupportedDegreeError,
)
from .framesim import (
    AssumptionReport,
    SnrConfig,
    SystemParams,
    check_assumptions,
    noise_variance,
    snr_pair,
    synthesize_frame,
)
from .harness import (
    ChannelConfig,
    ExperimentConfig,
    MetricsRow,
    frame_from_csv,
    frame_to_csv,
    load_config,
    rows_to_csv,
    rows_to_json,
    run_trials,
    sweep,
)
from .pilot_aided import (
    PilotAidedResult,
    PilotLayout,
    alternating_pilot,
    decode_iterative,
    decode_noniterative,
    exhaustive_search,
    iterative_channel_update,
    relaxed_data_updates,
    source_data_update_discrete,
    tag_data_update_discrete,
)
from .pilot_free import (
    PilotFreeResult,
    decode_disjoint,
    decode_joint,
    decode_perfect_csi,
)
from .solvers import (
    LassoSolution,
    RegularizationConfig,
    lasso_solve,
    numeric_rank,
    pinv_apply,
    ridge_solve,
)

__version__ = "0.1.0"
