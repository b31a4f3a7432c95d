"""Test harnesses that drive the product from outside: not part of ``repro``."""
