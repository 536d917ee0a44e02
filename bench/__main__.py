import os
import sys

# Suggestion weights are float sums over hash-ordered sets, so their last
# digit depends on PYTHONHASHSEED.  The byte-for-byte replay compares this
# process with the server, so both run under one fixed seed.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(
        sys.executable,
        [sys.executable, "-m", "bench", *sys.argv[1:]],
        dict(os.environ, PYTHONHASHSEED="0"),
    )

from .cli import main  # noqa: E402 - after the re-exec

sys.exit(main())
