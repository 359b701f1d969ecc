"""Two-clock benchmark: host wall/CPU and simulated time (see README.md)."""
