"""E26: whole-request timing with a per-layer split (see README.md)."""
