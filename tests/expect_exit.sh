#!/bin/sh
# Runs a command and checks its exit status and that its combined stdout
# and stderr contain a fixed string: the CLI contract tests in
# tools/CMakeLists.txt use it to pin exit codes and error lines.
#
# usage: expect_exit.sh STATUS TEXT COMMAND [ARG...]
want=$1
text=$2
shift 2
out=$("$@" 2>&1)
got=$?
if [ "$got" -ne "$want" ]; then
  printf 'exit status %s, want %s: %s\n%s\n' "$got" "$want" "$*" "$out"
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qF -e "$text"; then
  printf 'output lacks "%s": %s\n%s\n' "$text" "$*" "$out"
  exit 1
fi
