#!/bin/sh
# Non-test Rust lines, per crate and in sum: for every `.rs` file under
# crates/*/src and src, the lines before its first `#[cfg(test)]` line
# (the whole file if it has none). Unit-test modules sit at the end of
# their file, so this counts the library and binary code and leaves the
# tests out. Informational: the ROADMAP and CHANGES.md quote this number.
#
#   scripts/nontest_lines.sh [ROOT]
#
# ROOT defaults to the checkout holding this script; point it at a
# second checkout to count another commit.
set -eu

root=${1:-"$(cd "$(dirname "$0")/.." && pwd)"}
cd "$root"

count() {
    find "$@" -name '*.rs' -type f | sort | xargs awk '
        FNR == 1 { stop = 0 }
        /^[ \t]*#\[cfg\(test\)\]/ { stop = 1 }
        !stop { n++ }
        END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    case $dir in
        src) name="(facade)" ;;
        *) name=${dir#crates/}; name=${name%/src} ;;
    esac
    n=$(count "$dir")
    printf '%-12s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
