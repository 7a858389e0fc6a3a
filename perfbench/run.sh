#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload small-local --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the compiler's scratch files stay
# under .bench_build in the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
if [[ ! -f "$root/go.mod" || ! -f "$root/nbbs.go" ]]; then
	echo "perfbench: the library sources are not next to $here" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .)

cd "$root"
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)
tree=$(find . -name '*.go' -not -path './.bench_build/*' | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
exec "$out/perfbench" --commit "$commit/tree-$tree" "$@"
