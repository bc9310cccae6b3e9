"""Landmark vectors, distance vectors, and their incremental maintenance."""

from .selection import cover_endpoint, select_landmarks
from .vector import LandmarkIndex

__all__ = ["LandmarkIndex", "cover_endpoint", "select_landmarks"]
