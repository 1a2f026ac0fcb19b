"""Bayesian estimation of the realized stochastic volatility model by HMC."""

from .model import (
    LatentTarget,
    ModelParams,
    ObservedSeries,
    grad_potential,
    potential,
)
from .integrators import (
    DEFAULT_LAMBDA,
    TrajectoryConfig,
    integrate,
)
from .gibbs import PriorConfig, gibbs_sweep
from .hmc import ChainResult, HmcOutcome, default_init, hmc_update, run_chain
from .synth import STUDY_N, STUDY_PARAMS, SyntheticDataset, simulate
from .diagnostics import (
    ActEstimate,
    ScanRow,
    acf,
    integrated_act,
    posterior_summary,
    rms_dh,
    stepsize_scan,
)
from .rv import IntradayDay, RvSeries, build_series, daily_rv, hansen_lunde_c

__version__ = "0.1.0"
