"""Run ``python -m repro.serving`` with span wrappers installed.

Usage: ``serve_traced.py SPANS_PATH serve --store ... [serve options]``.
The spans are written to ``SPANS_PATH`` when the server has drained.
"""

import sys

import spans


def main() -> int:
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    from repro.serving.__main__ import main as serving_main

    try:
        return serving_main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
