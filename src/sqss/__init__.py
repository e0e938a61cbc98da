"""Deterministic simulator and security-analysis toolkit for two circular
semi-quantum secret-sharing protocols."""

# Set before the submodules load: reports record it (see harness).
__version__ = "1.0.0"

from .adversary import (
    AttackSpec,
    UnitaryPair,
    UnsupportedAttackError,
    catalog_ids,
    resolve_attack,
)
from .em_analysis import (
    ErrorProfile,
    TheoremVerdict,
    TradeoffPoint,
    constrained_search,
    error_profile,
    probe_distinguishability,
    theorem_check,
)
from .harness import (
    ConfigError,
    DetectionStats,
    ExperimentAborted,
    ExperimentConfig,
    config_from_dict,
    load_config,
    monte_carlo,
    wilson_interval,
    write_report,
)
from .oracle import detection_oracle
from .protocol_a import ProtocolAConfig, run_protocol_a
from .protocol_b import ProtocolBConfig, run_protocol_b
