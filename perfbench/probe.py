"""Set-up probe: a fresh interpreter loads, validates and builds manifests.

Usage: python3 perfbench/probe.py SRC_DIR MANIFEST...

The caller times this process from start to exit; that span is what a
user pays before the first check runs: interpreter start, the import of
paracurv, ``load_manifest`` and ``build_structure`` (signature probe
included) for every manifest.
"""

import sys


def main(src, paths):
    sys.path.insert(0, src)
    from paracurv.manifest import build_structure, load_manifest

    for path in paths:
        manifest, _ = load_manifest(path)
        build_structure(manifest)
    print(f"built {len(paths)}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
