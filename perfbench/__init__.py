"""Benchmark of the reproduction's AVM job; see README.md."""
