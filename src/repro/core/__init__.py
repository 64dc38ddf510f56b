"""MUTE core: LANC adaptive filtering, profiling, relay selection, system."""

from .adaptive import (
    AdaptationResult,
    ApaFilter,
    FxlmsFilter,
    LancFilter,
    LmsFilter,
    MultiRefLancFilter,
    RlsFilter,
    identify_system,
)
from .adaptive.lanc import StreamingLanc
from .device import HandoffEvent, OnlineMuteDevice, OnlineSessionResult
from .edge import EdgeAncService, EdgeClient, EdgeServiceResult
from .persistence import load_learned_state, save_learned_state
from .presets import airport_gate, all_presets, bedroom_at_night, gym_floor
from .multisource import MultiSourceScene, build_multisource_scene
from .optimal import WienerSolution, optimal_cancellation_db, wiener_lanc
from .baselines import BoseHeadphone, ConventionalAncModel
from .lookahead import LookaheadBudget, lookahead_samples, lookahead_seconds
from .profiles import (
    FilterCache,
    PredictiveProfileSwitcher,
    ProfileClassifier,
    SoundProfile,
    signature_distance,
)
from .relay_selection import (
    LookaheadMeasurement,
    RelaySelector,
    gcc_phat,
    measure_lookahead,
)
from .scenario import Scenario, ScenarioChannels, office_scenario
from .secondary_path import SecondaryPathEstimate, estimate_secondary_path
from .system import (
    MuteConfig,
    MuteRunResult,
    MuteSystem,
    PreparedSignals,
    ResilientRunResult,
)

__all__ = [
    "AdaptationResult",
    "ApaFilter",
    "MultiRefLancFilter",
    "RlsFilter",
    "MultiSourceScene",
    "build_multisource_scene",
    "WienerSolution",
    "optimal_cancellation_db",
    "wiener_lanc",
    "HandoffEvent",
    "OnlineMuteDevice",
    "OnlineSessionResult",
    "EdgeAncService",
    "EdgeClient",
    "EdgeServiceResult",
    "load_learned_state",
    "save_learned_state",
    "airport_gate",
    "all_presets",
    "bedroom_at_night",
    "gym_floor",
    "FxlmsFilter",
    "LancFilter",
    "LmsFilter",
    "identify_system",
    "StreamingLanc",
    "BoseHeadphone",
    "ConventionalAncModel",
    "LookaheadBudget",
    "lookahead_samples",
    "lookahead_seconds",
    "FilterCache",
    "PredictiveProfileSwitcher",
    "ProfileClassifier",
    "SoundProfile",
    "signature_distance",
    "LookaheadMeasurement",
    "RelaySelector",
    "gcc_phat",
    "measure_lookahead",
    "Scenario",
    "ScenarioChannels",
    "office_scenario",
    "SecondaryPathEstimate",
    "estimate_secondary_path",
    "MuteConfig",
    "MuteRunResult",
    "MuteSystem",
    "PreparedSignals",
    "ResilientRunResult",
]
