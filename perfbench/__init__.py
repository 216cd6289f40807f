"""The selberg-lab benchmark harness (see run.py)."""
