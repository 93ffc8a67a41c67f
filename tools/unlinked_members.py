#!/usr/bin/env python3
"""List the library archive members that no program links.

    python3 tools/unlinked_members.py BUILD_DIR LINK_LOG [LINK_LOG ...]

BUILD_DIR is a build of the top-level project; every member of every
BUILD_DIR/src/**/libhsw_*.a is expected to end up in some program. Each
LINK_LOG is the output of a build that linked its programs with
-DCMAKE_EXE_LINKER_FLAGS=-Wl,-t,-t: given -t twice, GNU ld prints one
"(<archive>)<member>" line for every archive member it loads. Archives
are matched by file name, so the logs may come from several build trees
(the top-level project and bench/e2e).

Prints each member that no log shows loaded, as the source file it was
compiled from, and exits 1 if there is any; exits 0 when every member was
loaded, and 2 on bad input.
"""
import glob
import os
import re
import subprocess
import sys

LOADED = re.compile(r"\(([^()\s]*/)?(libhsw_\w+\.a)\)(\S+)")


def main(argv):
    if len(argv) < 3:
        print("usage: unlinked_members.py BUILD_DIR LINK_LOG [LINK_LOG ...]",
              file=sys.stderr)
        return 2
    build_dir, logs = argv[1], argv[2:]
    archives = sorted(glob.glob(os.path.join(build_dir, "src", "**", "libhsw_*.a"),
                                recursive=True))
    if not archives:
        print(f"unlinked_members: no libhsw_*.a under {build_dir}/src", file=sys.stderr)
        return 2

    loaded = set()
    for log in logs:
        with open(log, errors="replace") as f:
            for line in f:
                m = LOADED.search(line)
                if m:
                    loaded.add((m.group(2), m.group(3)))
    if not loaded:
        print("unlinked_members: no '(archive)member' lines in the logs; "
              "were the programs linked with -Wl,-t,-t?", file=sys.stderr)
        return 2

    total = 0
    unlinked = []
    for archive in archives:
        name = os.path.basename(archive)
        src_dir = os.path.relpath(os.path.dirname(archive), build_dir)
        members = subprocess.run(["ar", "t", archive], check=True, text=True,
                                 capture_output=True).stdout.split()
        total += len(members)
        for member in members:
            if (name, member) not in loaded:
                source = member[:-2] if member.endswith(".o") else member
                unlinked.append(f"{src_dir}/{source}  ({name}: {member})")

    for entry in unlinked:
        print(entry)
    print(f"{total - len(unlinked)} of {total} members of {len(archives)} archives "
          f"are linked; {len(unlinked)} are not", file=sys.stderr)
    return 1 if unlinked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
