"""Benchmark for the cookietrail CLI chain; run ``python3 perfbench/run.py --help``."""
