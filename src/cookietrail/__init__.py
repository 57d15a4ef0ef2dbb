"""Measurement pipeline for consent-scoped cookies that travel across sites.

The package detects tracking cookies that were stored under an accepted
consent banner on one site and later transmitted to their tracker from
another site before any banner interaction there, and ships a deterministic
ecosystem simulator that generates crawl logs with known ground truth so the
whole pipeline is oracle-testable.
"""

__version__ = "0.1.0"
