#!/usr/bin/env python3
"""Fail if more public names than recorded have no user outside their crate.

usage: pub_surface.py            (from the repository root)

A name-level scan, not a resolver: every `pub fn|struct|enum|trait|type|
const` declared under `crates/*/src` (binaries excluded) whose name occurs
as a word in no tracked `*.rs` file outside that crate's `src` — another
crate, a binary, a test, an example, the facade. Such a name is public for
nobody: delete it if nothing calls it at all, or narrow it to `pub(crate)`.
The scan over-counts a little (trait methods called through a generic, a
name only rustdoc links to) and under-counts a little (a common word used
elsewhere for something else), so it gates a ceiling rather than zero:
lower `CEILING` when the list shrinks, never raise it.
"""
import pathlib
import re
import subprocess
import sys

CEILING = 12

DECLARATION = re.compile(
    r"^\s*pub (?:const |unsafe |async )*(?:fn|struct|enum|trait|type|const) (\w+)", re.M
)

tracked = subprocess.run(
    ["git", "ls-files", "*.rs"], check=True, capture_output=True, text=True
).stdout.split()
text = {path: pathlib.Path(path).read_text() for path in tracked}

unused = []
for crate in sorted({path.split("/")[1] for path in tracked if path.startswith("crates/")}):
    own = f"crates/{crate}/src/"
    outside = "\n".join(body for path, body in text.items() if not path.startswith(own))
    words = set(re.findall(r"\w+", outside))
    for path, body in sorted(text.items()):
        if path.startswith(own) and not path.startswith(own + "bin/"):
            names = DECLARATION.findall(body)
            unused += [f"{path}: {name}" for name in names if name not in words]

print("\n".join(unused))
print(f"{len(unused)} public names without a user outside their crate (ceiling {CEILING})")
sys.exit(len(unused) > CEILING)
