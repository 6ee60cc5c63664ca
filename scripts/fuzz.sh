#!/usr/bin/env sh
# Run every fuzz target in turn for FUZZTIME each (a Go duration such
# as 10s or 5m).  This is the one list of fuzz targets: `make fuzz`,
# CI's fuzz-smoke job and the nightly fuzz-long job all call this
# script, at different times.  Before fuzzing, it fails if a
# `func Fuzz…` under internal/ is missing from the list, or if a listed
# target no longer exists.  New crashers land in each package's
# testdata/fuzz corpus.
#
# Usage: scripts/fuzz.sh FUZZTIME
set -eu

FUZZTIME=${1:?usage: scripts/fuzz.sh FUZZTIME}

# package:target, one per line.
TARGETS="
./internal/aegisrw:FuzzMetadata
./internal/bitvec:FuzzBitvec
./internal/cluster:FuzzLeaseWire
./internal/core:FuzzUnmarshalBits
./internal/ecc:FuzzDecode
./internal/ecc:FuzzEncodeRoundTrip
./internal/experiments:FuzzParseScheme
./internal/pcm:FuzzWear
./internal/plane:FuzzLayoutInvariants
./internal/safer:FuzzSAFERPlan
./internal/scheme:FuzzMetadata
./internal/scheme:FuzzWriteRead
./internal/serve:FuzzJournalReplay
./internal/sim:FuzzResetEquivalence
./internal/xrand:FuzzXrandStream
"

# Every fuzz function under internal/, as package:target.
DEFINED=$(grep -rE --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*\(' internal |
	sed -E 's#^(.*)/[^/]*_test\.go:func (Fuzz[A-Za-z0-9_]*)\(.*#./\1:\2#')

# contains LIST ITEM; sh has no local variables, so the loop variable
# must not be the callers' t.
contains() {
	for c in $1; do
		[ "$c" = "$2" ] && return 0
	done
	return 1
}

status=0
for t in $DEFINED; do
	if ! contains "$TARGETS" "$t"; then
		echo "fuzz.sh: $t is not listed in scripts/fuzz.sh" >&2
		status=1
	fi
done
for t in $TARGETS; do
	if ! contains "$DEFINED" "$t"; then
		echo "fuzz.sh: listed target $t does not exist" >&2
		status=1
	fi
done
[ "$status" -eq 0 ] || exit 1

# -run matches the target alone, so only its seed corpus runs before
# fuzzing; the packages' other tests belong to the ordinary test run.
for t in $TARGETS; do
	pkg=${t%%:*}
	name=${t#*:}
	echo "fuzz.sh: $name in $pkg for $FUZZTIME"
	go test -run="^$name\$" -fuzz="^$name\$" -fuzztime="$FUZZTIME" "$pkg"
done
