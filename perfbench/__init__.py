"""End-to-end benchmark of the trial-and-failure simulator; see run.py."""
