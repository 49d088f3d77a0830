"""stackbench: one benchmark for the whole stack (see ../README.md)."""
