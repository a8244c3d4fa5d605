"""Statistics of periodic finite-precision position measurements of a
quantum harmonic oscillator: exact Gaussian-chain analytics, Monte Carlo
simulation, and an independent grid-based Schrodinger oracle."""

from .chain_analytics import (
    ChainClosedForm,
    MeasurementScheme,
    NondimPoint,
    density_before_nth,
    ensemble_variance_partial,
    limiting_sigma,
    limiting_sigma_simplified,
    nondim_limit,
    optimal_precision,
    povm_parameters,
)
from .errors import (
    ConfigError,
    DomainError,
    GridTooCoarse,
    GridTooSmall,
    InsufficientSamples,
    LeakageError,
    PrecisionError,
    QhoError,
    ResonanceError,
)
from .gaussian_core import (
    Gaussian,
    OscillatorParams,
    WavePacket,
    evolved_density,
    evolved_width,
    gaussian_overlap_integral,
    gaussian_product,
)
from .grid_oracle import (
    CollapseMode,
    Grid,
    GridWavefunction,
    evolve,
    init_packet,
    measure_and_collapse,
    run_chain_grid,
)
from .trajectory_sim import (
    ChainConfig,
    MeasurementRecord,
    RunningStats,
    ks_critical_1pct,
    normality_statistic,
    run_chain,
    run_chain_jittered,
    run_ensemble,
    thinning_interval,
)

__version__ = "0.1.0"
