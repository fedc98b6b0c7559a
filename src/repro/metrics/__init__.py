"""Gradient-compression error: NMSE of an aggregate against the exact average."""

from repro.metrics.nmse import nmse

__all__ = ["nmse"]
