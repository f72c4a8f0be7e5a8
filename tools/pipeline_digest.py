"""Digest of the certificate pipeline's output on a fixed instance set.

For each of c3xc, c4xc, pow2 and pow3 at n = 10, 11, 301, 10^5 and 10^5 + 1
it runs, through `decycling.cli.main` in this process,

* `construct KIND N` (the certificate on stdout),
* `construct KIND N -o FILE` (the summary line and the file's bytes),
* `verify FILE`,
* `verify` on three copies of FILE with the first, the middle or the last
  member of the set dropped,

and prints one sha256 over every command's exit code, stdout, stderr and
written bytes, then the best of 5 wall times per stage summed over the
instances.  A change to the pipeline that must keep its output prints the
same digest.

Run from anywhere, with no options:

    python tools/pipeline_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from decycling.cli import main as cli_main  # noqa: E402

FAMILIES = ("c3xc", "c4xc", "pow2", "pow3")
SIZES = (10, 11, 301, 100_000, 100_001)
REPEATS = 5


def _run(argv: list[str], workdir: str) -> bytes:
    """Exit code, stdout and stderr of one CLI call, with workdir masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    text = f"{argv[0]} {code}\n{out.getvalue()}\n{err.getvalue()}\n"
    return text.replace(workdir, "DIR").encode()


def _drop(cert: Path, dropped: Path, where: str) -> None:
    doc = json.loads(cert.read_text(encoding="utf-8"))
    members = doc["set"]
    del members[{"first": 0, "middle": len(members) // 2, "last": -1}[where]]
    dropped.write_text(json.dumps(doc), encoding="utf-8")


def main() -> int:
    digest = hashlib.sha256()
    best: dict[str, float] = {}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="pipeline-digest-") as workdir:
        for family in FAMILIES:
            for n in SIZES:
                cert = Path(workdir) / f"{family}-{n}.json"
                dropped = {w: Path(workdir) / f"{family}-{n}-{w}.json"
                           for w in ("first", "middle", "last")}
                stages = [("construct", ["construct", family, str(n)]),
                          ("construct -o", ["construct", family, str(n), "-o", str(cert)]),
                          ("verify", ["verify", str(cert)])]
                stages += [(f"verify {w} dropped", ["verify", str(path)])
                           for w, path in dropped.items()]
                for stage, argv in stages:
                    times = []
                    for _ in range(REPEATS):
                        began = time.perf_counter()
                        output = _run(argv, workdir)
                        times.append(time.perf_counter() - began)
                    digest.update(output)
                    if stage == "construct -o":
                        digest.update(cert.read_bytes())
                        for where, path in dropped.items():
                            _drop(cert, path, where)
                    best[stage] = best.get(stage, 0.0) + min(times)
    for stage, seconds in best.items():
        print(f"{stage:22} {seconds * 1000:9.1f} ms")
    print(f"total {time.perf_counter() - start:.1f}s")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
