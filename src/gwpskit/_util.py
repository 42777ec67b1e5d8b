"""Small shared helpers: exponent-tuple arithmetic."""

from __future__ import annotations


def tadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
