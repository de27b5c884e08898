"""Distributed power control by iterative water-filling in MIMO interference networks."""

from .contraction import (
    PowerIterationError,
    build_interference_matrix,
    certify,
    spectral_radius,
    write_matrix_csv,
)
from .engine import (
    Schedule,
    ScheduleError,
    check_nash,
    make_schedule,
    run_game,
    trace_to_csv,
)
from .expharness import (
    SweepSpec,
    run_trial,
    sweep_sumrate,
    sweep_uniqueness,
    write_csv,
)
from .netmodel import (
    ChannelRealization,
    ConfigError,
    NetworkConfig,
    sample_channels,
    validate_config,
)
from .precode import (
    DegenerateChannelError,
    SvdError,
    build_effective_network,
    svd_decompose,
)
from .waterfill import (
    greedy_profile,
    random_profile,
    sum_rate,
    uniform_profile,
    validate_profile,
    water_level,
)

__version__ = "0.1.0"
