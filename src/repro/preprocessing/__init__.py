"""Sample pre-processing (paper Section 3.1): standardization."""

from .scalers import (
    IdentityScaler,
    MinMaxScaler,
    Scaler,
    StandardScaler,
    available_scalers,
    get_scaler,
)

__all__ = [
    "Scaler",
    "StandardScaler",
    "MinMaxScaler",
    "IdentityScaler",
    "get_scaler",
    "available_scalers",
]
