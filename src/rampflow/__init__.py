"""Ramp-metering control laboratory: plant models, set-valued estimation,
an exact MILP-based predictive controller, and classical baselines.

The package exports its modules and nothing else; import a name from the
module that defines it. It has no outside users and promises no
compatibility: a public definition stays only while the package or its
benchmark calls it, apart from the few that ``tests/test_packaging.py``
keeps on purpose.
"""
