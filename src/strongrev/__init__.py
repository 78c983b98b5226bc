"""Exact reversibility and strong-reversibility certificates for SL(n)
conjugacy classes given by Jordan data over the Gaussian rationals."""

from .scalars import GaussianRational, ScalarParseError, parse
from .matrices import ExactMatrix, PermutationMap, SingularMatrixError, direct_sum
from .partitions import Partition, PartitionSets, parity_sets
from .canonical import (
    JordanSpec,
    WeyrForm,
    WeyrStructure,
    basic_weyr_matrix,
    homogeneous_weyr,
    jordan_block,
    jordan_matrix,
    matches_centralizer_pattern,
    sample_centralizer,
    weyr_form,
)
from .reversal import (
    DetSignPrediction,
    NotReversibleError,
    NotStronglyReversibleError,
    StrongReversibilityReport,
    WitnessBundle,
    classify,
    involution_det_sign,
    involution_reverser,
    involutive_witness,
    inverse_law_holds,
    jordan_reverser,
    jordan_reverser_general,
    jordan_reverser_recurrence,
    pair_reverser,
    sample_reverser,
    sl_reverser_witness,
    upper_toeplitz,
)
from .verify import (
    SpecGenerator,
    VerificationReport,
    check_witness,
    classification_sweep,
    cross_path_check,
    homogeneous_det_check,
    run_selftest,
)

__version__ = "0.1.0"
