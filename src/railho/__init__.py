"""railho: LTE hard-handover simulator for a high-speed train passing
directional trackside radio heads."""

__version__ = "0.1.0"
