from .gluing import GluingStep, verify_gluing_square
from .admissible import enumerate_admissible_sets, is_admissible
from .claims import pullback_hyperface, run_claims_suite
from .scripts import (
    Fork,
    ReplayScript,
    alt_trivial,
    horiz_equiv,
    oury_from_alt,
    replay,
    sigma_s,
    spine_anodyne,
    upsilon_full,
    upsilon_vertical,
    vert_equiv,
)
from .lifting import compare_generating_sets, lift_check

__all__ = [
    "Fork",
    "GluingStep",
    "ReplayScript",
    "enumerate_admissible_sets",
    "alt_trivial",
    "compare_generating_sets",
    "horiz_equiv",
    "is_admissible",
    "lift_check",
    "oury_from_alt",
    "pullback_hyperface",
    "replay",
    "run_claims_suite",
    "sigma_s",
    "spine_anodyne",
    "upsilon_full",
    "upsilon_vertical",
    "verify_gluing_square",
    "vert_equiv",
]
