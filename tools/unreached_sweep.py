#!/usr/bin/env python3
"""Lists the library functions that no executable keeps, against a committed list.

Build the executables with per-function sections, without optimization
(so inlining hides no call), and let the linker drop every section no
executable reaches:

    cmake -B build-sweep -S . -G Ninja \\
      -DCMAKE_PROJECT_INCLUDE=perfbench/attach.cmake \\
      -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O0 -DNDEBUG" \\
      -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
    cmake --build build-sweep --target bench/all examples/all tools/all perfbench/all
    python3 tools/unreached_sweep.py build-sweep

A function is unreached when a src library defines it out of line (nm
type T) and no executable under bench/, examples/, tools/ or perfbench/
defines it after linking. The sweep fails (exit 1) on an unreached
function that is not on the list, and on a list entry that an
executable now keeps or that no library defines any more, so the list
cannot go stale. The list (tools/unreached_kept.txt) holds one demangled
signature per line, in groups separated by blank lines; each group opens
with a '#' line that says why its functions stay.
"""

import argparse
import os
import subprocess
import sys

EXECUTABLE_DIRS = ("bench", "examples", "tools", "perfbench")


def defined_symbols(path, types=None):
    """Demangled names of the symbols `path` defines (of nm `types`, if given)."""
    out = subprocess.run(["nm", "--defined-only", "-C", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split(" ", 2)
        if len(fields) == 3 and (types is None or fields[1] in types):
            names.add(fields[2])
    return names


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def find_files(root, accept):
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        found += [os.path.join(dirpath, f) for f in filenames
                  if accept(os.path.join(dirpath, f))]
    return sorted(found)


def read_list(path):
    """Entries of the committed list; a group without a '#' reason is an error."""
    entries, errors = [], []
    group_has_reason = False
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                group_has_reason = False
            elif line.startswith("#"):
                group_has_reason = True
            else:
                if not group_has_reason:
                    errors.append(f"{path}:{number}: entry outside a '#'-reasoned group")
                entries.append(line)
    return entries, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--list", default=os.path.join(os.path.dirname(__file__),
                                                       "unreached_kept.txt"))
    args = parser.parse_args()

    libs = find_files(os.path.join(args.build_dir, "src"),
                      lambda p: os.path.basename(p).startswith("libsci_") and p.endswith(".a"))
    exes = [e for d in EXECUTABLE_DIRS
            for e in find_files(os.path.join(args.build_dir, d), is_elf_executable)]
    if not libs or not exes:
        sys.exit(f"error: no libsci_*.a or no executables under {args.build_dir}")

    defined = set()
    for lib in libs:
        defined |= defined_symbols(lib, types={"T"})
    kept = set()
    for exe in exes:
        kept |= defined_symbols(exe)
    unreached = defined - kept

    entries, errors = read_list(args.list)
    listed = set(entries)
    errors += [f"listed twice: {e}" for e in sorted({e for e in entries if entries.count(e) > 1})]
    errors += [f"unreached and not listed: {s}" for s in sorted(unreached - listed)]
    errors += [f"listed but kept by an executable: {s}" for s in sorted(listed & kept)]
    errors += [f"listed but defined by no library: {s}" for s in sorted(listed - defined)]

    print(f"{len(libs)} libraries define {len(defined)} out-of-line functions; "
          f"{len(exes)} executables keep {len(defined & kept)}; "
          f"{len(unreached)} unreached, {len(listed)} listed")
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
