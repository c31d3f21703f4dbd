"""Exact rewriting for cubic-graded deformed plane algebras.

Scalars are rational functions of q over the field extended by a
primitive cube root of unity j.  Algebras are finite presentations with
oriented rewrite rules; reduction to normal form decides equality, and
the preset catalog carries every shipped presentation.
"""

__version__ = "0.1.0"
