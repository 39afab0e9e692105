"""Analog over-the-air federated learning under heavy-tailed channel noise.

A desk-scale simulator and analysis library: symmetric alpha-stable noise,
Rayleigh-faded superposition aggregation, median-anchored and norm-based
server-side gradient clipping, and Monte Carlo verification of the clipping
probability law and the convergence bound.
"""

from .analysis import (
    BoundCheckReport,
    BoundParams,
    ClipDecomposition,
    SurvivalReport,
    clip_survival_report,
    classical_descent_bound,
    convergence_bound,
    decompose_clip_event,
    gaussian_unclipped_prob,
    make_quadratic_testbed,
    verify_convergence_bound,
)
from .channel import ChannelConfig, FadingModel, measure_snr, sample_fading, transmit
from .clipping import (
    ClipMethod,
    apply_blockwise,
    clip_statistics,
    gnc_clip,
    mac_clip,
    merge_blocks,
    split_blocks,
    vector_median,
)
from .data import (
    ClientDataset,
    Dataset,
    PartitionSpec,
    load_csv_dataset,
    make_synthetic_classification,
    partition,
    train_test_split,
)
from .fl_core import (
    FLConfig,
    RoundRecord,
    TrainResult,
    compare_methods,
    evaluate,
    method_variant,
    run_round,
    run_threshold_sweep,
    run_training,
)
from .models import (
    LogisticModel,
    MlpModel,
    QuadraticClientData,
    QuadraticModel,
    SmoothnessInfo,
    compute_smoothness,
)
from .stable_noise import (
    RegimeError,
    StableParams,
    estimate_unclipped_prob,
    sample_sas,
    tail_prob_simplified,
)

__version__ = "0.1.0"
