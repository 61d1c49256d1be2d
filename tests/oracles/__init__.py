"""Reference implementations kept for differential testing."""
