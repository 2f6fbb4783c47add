"""The repository's benchmark (entry point: ``perfbench/run.py``)."""
