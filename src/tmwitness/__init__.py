"""Small multipliers with odd binary weight, constructively.

For every positive k there is an n no larger than (odd part of k) + 4 such
that k*n has odd binary weight. This package builds such an n case by case
from the run structure of k, checks it against a brute-force oracle, extends
the question to digit sums in arbitrary bases, and scans ranges of k while
verifying every claimed invariant as it goes.
"""

from .cli import main, parse_certificate, run, serialize_certificate
from .digitcore import (
    RunDecomposition,
    TheoremViolationError,
    lower_slice,
    reduce_to_odd,
    run_decompose,
    shifted_difference_digit_sum,
    sum_digits,
    thue_morse,
    to_word,
    upper_slice,
)
from .genbase import ConjectureReport, GenBaseQuery, conjecture_scan, corollary_construct, prop_construct
from .oracle import f_exact, g_min, min_weight_witness, zero_min
from .scanner import (
    THEOREM_HEADER,
    FrequencyRecord,
    ScanRecord,
    WeightFamilyRecord,
    emit_csv,
    frequency,
    scan_theorem,
    scan_weight_family,
)
from .witness import (
    CaseLabel,
    UnsupportedCaseError,
    WitnessCertificate,
    certify,
    classify,
    construct_candidates,
    word_shape,
)

__version__ = "0.1.0"

__all__ = [
    "CaseLabel",
    "ConjectureReport",
    "FrequencyRecord",
    "GenBaseQuery",
    "RunDecomposition",
    "ScanRecord",
    "THEOREM_HEADER",
    "TheoremViolationError",
    "UnsupportedCaseError",
    "WeightFamilyRecord",
    "WitnessCertificate",
    "certify",
    "classify",
    "conjecture_scan",
    "construct_candidates",
    "corollary_construct",
    "emit_csv",
    "f_exact",
    "frequency",
    "g_min",
    "lower_slice",
    "main",
    "min_weight_witness",
    "parse_certificate",
    "prop_construct",
    "reduce_to_odd",
    "run",
    "run_decompose",
    "scan_theorem",
    "scan_weight_family",
    "serialize_certificate",
    "shifted_difference_digit_sum",
    "sum_digits",
    "thue_morse",
    "to_word",
    "upper_slice",
    "word_shape",
    "zero_min",
]
