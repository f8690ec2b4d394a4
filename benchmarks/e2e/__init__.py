"""One end-to-end benchmark over four paper workloads (see README.md)."""
