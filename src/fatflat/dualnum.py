"""Empty: this module defines no names.

``benchmark/tracer.py`` imports it by name among the modules it wraps, so
the file stays until the next change to the benchmark drops it from that
list (ROADMAP item 1).
"""
