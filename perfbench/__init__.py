"""End-to-end and per-module benchmark of the tracelaurent package."""
