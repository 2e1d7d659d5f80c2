"""CSV and manifest emission.

CSV is the canonical tabular output; floats are written with %.17g so
identical runs produce identical bytes.  Every artifact-producing run
drops a manifest recording the exact config, its hash, the seed, and the
package version, which is what makes two runs comparable.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(dest, header, rows) -> None:
    """Write the CSV to ``dest``, a path or a text stream such as sys.stdout."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(directory, experiment: str, config: dict, seed: int) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "experiment": experiment,
        "config": config,
        "config_sha256": config_hash(config),
        "seed": int(seed),
        "version": __version__,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
