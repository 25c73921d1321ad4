"""End-to-end benchmark of the Poseidon reproduction (see README.md)."""
