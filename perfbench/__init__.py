"""Seeded end-to-end and per-layer benchmark for nilrep; see README.md."""
