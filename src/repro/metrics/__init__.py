"""Measurement collection for the experiments (``repro bench``)."""
