"""Spatial-temporal mapping of interface pressure recordings.

The package turns raw pressure-sensor movies into FDR-screened
significance maps of local change between two recording sessions.  The
stages are importable on their own:

``frames``
    Frame/movie containers, the movie text format, PGM/CSV map export.
``segmentation``
    Gaussian-mixture thresholding of sensor frames (EM + BIC + the
    misclassification-optimal cut between components).
``registration``
    Spatial self-registration of each frame to a canonical pose and
    temporal alignment of two movies by correlation lag.
``ssm``
    Rim padding, bivariate local-quadratic smoothing, t/p maps, and
    Benjamini-Hochberg / Benjamini-Yekutieli screening.
``synthgen``
    Synthetic phantom sessions with known ground truth.
``pipeline``
    The end-to-end run plus the ``lasr`` command line tool.
"""

from .errors import (
    ConfigError,
    DataError,
    FormatError,
    LasrError,
    NumericError,
    StageError,
)
from .frames import (
    Frame,
    Movie,
    SessionLayout,
    frames_equal,
    load_movie,
    load_session,
    movies_equal,
    save_map_csv,
    save_map_image,
    save_movie,
    save_session,
    with_positive_mask,
)
from .segmentation import (
    InitSpec,
    MixtureModel,
    SegmentationResult,
    fit_mixture,
    optimal_threshold,
    pmc_oracle,
    positive_samples,
    segment_frame,
    segment_movie,
    select_model,
)
from .registration import (
    LagAlignment,
    MidlineFit,
    RigidTransform,
    align_movies,
    apply_rigid,
    column_midpoints,
    compose,
    fit_midline,
    frame_correlation,
    icr_lag,
    identity_transform,
    registration_error,
    srlp_params,
    srlp_register,
    transform_points,
)
from .ssm import (
    FdrConfig,
    PMap,
    SmoothFit,
    TMap,
    bh_adjust,
    degrees_of_freedom,
    difference_map,
    fdr_map,
    local_quadratic_smooth,
    p_map,
    pad_rim,
    prds_covariance_check,
    refit,
    residual_traces,
    restrict_tmap,
    t_map,
)
from .synthgen import (
    EffectSpec,
    GroundTruth,
    PhantomSpec,
    PoseSpec,
    StimSpec,
    blob_field,
    gen_frame,
    gen_lagged_pair,
    gen_misaligned_pair,
    gen_pose_pair,
    gen_session,
    seat_blob,
)
from .pipeline import RunConfig, cli_main, main, run_lasr

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "FormatError", "LasrError", "NumericError", "StageError",
    "Frame", "Movie", "SessionLayout", "frames_equal", "load_movie", "load_session",
    "movies_equal", "save_map_csv", "save_map_image", "save_movie", "save_session",
    "with_positive_mask",
    "InitSpec", "MixtureModel", "SegmentationResult", "fit_mixture", "optimal_threshold",
    "pmc_oracle", "positive_samples", "segment_frame", "segment_movie", "select_model",
    "LagAlignment", "MidlineFit", "RigidTransform", "align_movies", "apply_rigid",
    "column_midpoints", "compose", "fit_midline", "frame_correlation", "icr_lag",
    "identity_transform", "registration_error", "srlp_params", "srlp_register",
    "transform_points",
    "FdrConfig", "PMap", "SmoothFit", "TMap", "bh_adjust", "degrees_of_freedom",
    "difference_map", "fdr_map", "local_quadratic_smooth", "p_map", "pad_rim",
    "prds_covariance_check", "refit", "residual_traces", "restrict_tmap", "t_map",
    "EffectSpec", "GroundTruth", "PhantomSpec", "PoseSpec", "StimSpec", "blob_field",
    "gen_frame", "gen_lagged_pair", "gen_misaligned_pair", "gen_pose_pair",
    "gen_session", "seat_blob",
    "RunConfig", "cli_main", "main", "run_lasr",
    "__version__",
]
