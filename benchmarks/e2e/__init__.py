"""End-to-end serving benchmark plus per-layer ladder trace (see README.md)."""
