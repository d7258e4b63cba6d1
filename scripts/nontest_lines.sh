#!/bin/sh
# Non-test Rust lines, per crate and in sum: for every `.rs` file under
# crates/*/src and src, the lines before its first `#[cfg(test)]` line
# (the whole file if it has none). Unit-test modules sit at the end of
# their file, so this counts the library and binary code and leaves the
# tests out. Beside each count, the `unsafe { … }` blocks in the same
# lines. Informational: the ROADMAP and CHANGES.md quote these numbers.
#
#   scripts/nontest_lines.sh [ROOT]
#
# ROOT defaults to the checkout holding this script; point it at a
# second checkout to count another commit.
set -eu

root=${1:-"$(cd "$(dirname "$0")/.." && pwd)"}
cd "$root"

# Prints "<lines> <unsafe blocks>" for the non-test code under $1.
count() {
    find "$1" -name '*.rs' -type f | sort | xargs awk '
        FNR == 1 { stop = 0 }
        /^[ \t]*#\[cfg\(test\)\]/ { stop = 1 }
        stop { next }
        { n++; u += gsub(/(^|[^A-Za-z0-9_])unsafe[ \t]*\{/, "&") }
        END { print n + 0, u + 0 }'
}

total=0
unsafe_total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    case $dir in
        src) name="(facade)" ;;
        *) name=${dir#crates/}; name=${name%/src} ;;
    esac
    set -- $(count "$dir")
    printf '%-12s %6d   unsafe %3d\n' "$name" "$1" "$2"
    total=$((total + $1))
    unsafe_total=$((unsafe_total + $2))
done
printf '%-12s %6d   unsafe %3d\n' total "$total" "$unsafe_total"
