"""The benchmark spine: wall-clock workloads with per-layer attribution.

Run with ``python3 benchmarks/spine/run.py`` (or
``PYTHONPATH=src python -m benchmarks.spine.run``); see README.md next
to this file for what is measured and why.
"""
