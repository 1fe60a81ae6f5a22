#!/bin/sh
# Rebuilds the frozen `analyze` corpus (lib + bin + check manifests) from the
# pinned commit with `git archive`, so the analyzer workload keeps the same
# input while the repository's own sources change.
#
#   sh perfbench/make_corpus.sh            # from the repository root
set -eu
COMMIT=1cae431dc94846f0654ace9a13daf433c3c643c8
here=$(cd "$(dirname "$0")" && pwd)
top=$(git -C "$here" rev-parse --show-toplevel)
rm -rf "$here/corpus"
mkdir -p "$here/corpus"
git -C "$top" archive "$COMMIT" lib bin check | tar -x -C "$here/corpus"
echo "corpus rebuilt from $COMMIT: $(find "$here/corpus" -type f | wc -l) files"
