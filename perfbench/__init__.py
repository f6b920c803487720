"""End-to-end and per-layer benchmark of the SHOAL serving stack.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
fits the ``default`` model, starts real ``serve-http`` /
``serve-follower`` processes, drives them over keep-alive HTTP/1.1 and
prints one JSON result line. ``perfbench/spec.json`` fixes every rate,
pool and phase of the workloads and the layer-to-metric predictions.
"""
