"""Benchmark harness for the shift-add DVS toolchain (see README.md)."""
