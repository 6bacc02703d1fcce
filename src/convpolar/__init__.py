"""Convolutional polar codes: construction, encoding, decoding, analysis."""

from .channel import ChannelModel, SimResult, run_fer, transmit, trial_rng
from .codespec import CodeSpec, parse_codespec, serialize_codespec
from .construction import (
    ConstructionResult,
    ReliabilityProfile,
    build_cvpc,
    build_cvps,
    genie_reliability,
)
from .cvpt import encode, layer_split
from .decoder import (
    ml_decode_bruteforce,
    sc_decode,
    scl_decode,
    scl_decode_batch,
    subchannel_prob_bruteforce,
)
from .distance import (
    DeltaTable,
    SubchannelWeights,
    compute_delta_tables,
    compute_weights,
    min_distance_bound,
)
from .erasure import (
    coset_min_weight,
    cross_check_coset_weights,
    cross_check_delta_tables,
    cross_check_tau,
    exhaustive_min_distance,
    min_erasures,
    pattern_preimage,
    recoverable_patterns,
)
from .subspaces import Subspace, build_tau_tables, enumerate_subspaces

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "CodeSpec",
    "ConstructionResult",
    "DeltaTable",
    "ReliabilityProfile",
    "SimResult",
    "Subspace",
    "SubchannelWeights",
    "build_cvpc",
    "build_cvps",
    "build_tau_tables",
    "compute_delta_tables",
    "compute_weights",
    "coset_min_weight",
    "cross_check_coset_weights",
    "cross_check_delta_tables",
    "cross_check_tau",
    "encode",
    "enumerate_subspaces",
    "exhaustive_min_distance",
    "genie_reliability",
    "layer_split",
    "min_distance_bound",
    "min_erasures",
    "ml_decode_bruteforce",
    "parse_codespec",
    "pattern_preimage",
    "recoverable_patterns",
    "run_fer",
    "sc_decode",
    "scl_decode",
    "scl_decode_batch",
    "serialize_codespec",
    "subchannel_prob_bruteforce",
    "transmit",
    "trial_rng",
]
