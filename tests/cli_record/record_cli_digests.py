"""Record the CLI's output on the test corpus, one entry per call.

    python3 tests/cli_record/record_cli_digests.py

Every model of ``conftest.sweep_corpus()`` and ``conftest.deletion_corpus()``
is written with ``dump_model`` to a temporary file, so every call reads its
coordinates through ``load_model``, and each of ``COMMANDS`` is run on it in
process.  For each call ``tests/cli_record/cli_digests.json`` stores the exit
code, the first 16 hex digits of stdout's SHA-256 and stderr, with the
temporary directory replaced by ``TMP``.  ``test_cli_reproduces_recorded_digests``
replays the sweep against that file, so a change that moves the CLI's bytes
on purpose records it again and names the entries that changed.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "cli_digests.json")
TMP = "<tmp>"

COMMANDS = (
    ("validate",),
    ("quiver",),
    ("polygon",),
    ("toric",),
    ("check",),
    ("theta", "--seed", "0"),
    ("fixed-points", "--seed", "0"),
    ("fixed-points", "--seed", "1"),
    ("render", "--what", "domain"),
    ("render", "--what", "model"),
    ("charpoly",),
    ("rcharge",),
    ("matchings",),
)


def sweep(tmp: str) -> dict[str, dict[str, list]]:
    """By model name and command line: ``[exit code, stdout digest, stderr]``."""
    from conftest import deletion_corpus, sweep_corpus
    from dimerkit import dump_model
    from dimerkit.cli import main

    record = {}
    for i, (name, model) in enumerate({**sweep_corpus(), **deletion_corpus()}.items()):
        # a new file each time: rewriting one can wait on the disk
        path = os.path.join(tmp, f"model{i}.json")
        dump_model(model, path)
        calls = record[name] = {}
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], path, *command[1:]])
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
            calls[" ".join(command)] = [code, digest, err.getvalue().replace(tmp, TMP)]
    return record


if __name__ == "__main__":
    sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]
    os.environ.pop("DIMER_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        record = sweep(tmp)
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(sum(map(len, record.values())), "calls on", len(record), "models")
