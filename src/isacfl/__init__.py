"""Personalized federated learning simulator for multi-cell ISAC beamforming.

Each base station trains a small beamforming network on its own synthetic
channel data; a central server aggregates the models, and an EM-style
posterior decides per-BS how much of the global model to absorb each round.
"""

from isacfl.channel import RngStream, SteeringConfig, steering_vector
from isacfl.metrics import Scenario

__all__ = [
    "RngStream",
    "Scenario",
    "SteeringConfig",
    "steering_vector",
]

__version__ = "0.1.0"
