"""The repository's benchmark: see run.py for the command, manifest.json
for the workloads and metrics, selftest.py for its tests."""
