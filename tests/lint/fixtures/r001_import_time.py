"""Planted R001 violations that run at import time, outside any def."""

__all__ = ["Limits"]

if __name__ == "__main__":
    raise ValueError("module body")  # planted: import-time builtin raise


class Limits:
    if __name__ == "__main__":
        raise ValueError("class body")  # planted: class-body builtin raise
