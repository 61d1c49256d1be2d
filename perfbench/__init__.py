"""Pipeline benchmark of the CEEMS stack (see README.md)."""
