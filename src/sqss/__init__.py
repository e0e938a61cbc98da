"""Deterministic simulator and security-analysis toolkit for two circular
semi-quantum secret-sharing protocols."""

from .adversary import (
    AttackSpec,
    UnitaryPair,
    UnsupportedAttackError,
    build_attack_plan,
    catalog_ids,
    parse_attack_id,
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
from .protocol_a import CaseLabel, ProtocolAConfig, classify_case, run_protocol_a
from .protocol_b import ProtocolBConfig, resolve_orders, run_protocol_b
from .qstate import (
    Basis,
    CompositeState,
    DensityMatrix,
    PrepState,
    PureState,
    apply_unitary,
    measure,
    measure_qubit,
    prepare,
    trace_distance,
)
from .runtime import (
    CheckVerdict,
    Choice,
    KeyMaterial,
    Leg,
    ParticleBatch,
    RunReport,
    transmit,
    xor_keys,
)

__version__ = "1.0.0"
