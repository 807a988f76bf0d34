"""End-to-end benchmark of the streaming service; see README.md."""
