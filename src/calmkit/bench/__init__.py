"""Benchmark harness: file formats, configs, reports, runner, and the CLI."""
