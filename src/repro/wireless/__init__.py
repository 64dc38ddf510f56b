"""Wireless substrate: FM/AM modulation, RF channel, the IoT relay."""

from .am import AmDemodulator, AmModulator
from .coexistence import CarrierSenseModel, allocate_channels, max_colocated_relays
from .privacy import (
    ScramblingCodec,
    leakage_radius_m,
    minimum_tx_power_dbm,
    received_audio_snr_db,
)
from .fm import FmDemodulator, FmModulator, ZeroPhaseDecimator, resample
from .link_budget import (
    ISM_900_BANDWIDTH_HZ,
    band_occupancy_fraction,
    free_space_path_loss_db,
    received_snr_db,
    thermal_noise_dbm,
)
from .relay import AnalogRelay, IdealRelay
from .rf_channel import RfChannel, RfChannelConfig, pa_nonlinearity

__all__ = [
    "AmDemodulator",
    "CarrierSenseModel",
    "allocate_channels",
    "max_colocated_relays",
    "ScramblingCodec",
    "leakage_radius_m",
    "minimum_tx_power_dbm",
    "received_audio_snr_db",
    "AmModulator",
    "FmDemodulator",
    "FmModulator",
    "ZeroPhaseDecimator",
    "resample",
    "ISM_900_BANDWIDTH_HZ",
    "band_occupancy_fraction",
    "free_space_path_loss_db",
    "received_snr_db",
    "thermal_noise_dbm",
    "AnalogRelay",
    "IdealRelay",
    "RfChannel",
    "RfChannelConfig",
    "pa_nonlinearity",
]
