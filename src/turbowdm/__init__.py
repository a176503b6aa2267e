"""Coherent optical WDM transmission simulator with adaptive turbo
equalization: RLS channel estimation feeding a sliding-window SISO LMMSE
equalizer iterating with a SISO LDPC decoder."""

__version__ = "0.1.0"
