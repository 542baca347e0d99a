"""Developer tooling for the SEBDB reproduction.

``tools.analysis`` is the pluggable static-analysis suite.
"""
