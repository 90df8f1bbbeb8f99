#!/usr/bin/env sh
# wire_conformance.sh — process-level wire smoke: the only check that runs
# avis-server, avis-client and avis-coord as separate binaries talking
# over real sockets. Two sessions fetch the same images — one dialing the
# server directly, one placed through a coordinator the server registered
# and heartbeats with — and each dumps its reconstructed pixels (float64
# LE). Both must complete (every connection opens with the wire handshake,
# on the data plane and the control plane) and the dumps must be
# byte-identical.
#
#   scripts/wire_conformance.sh            # both sessions (~5s)
#   KEEP_TMP=1 scripts/wire_conformance.sh # leave dumps behind on failure
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
cleanup() {
	[ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
	[ -n "${COORD_PID:-}" ] && kill "$COORD_PID" 2>/dev/null || true
	wait 2>/dev/null || true
	[ "${KEEP_TMP:-0}" = "1" ] || rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$TMP/avis-server" ./cmd/avis-server
go build -o "$TMP/avis-client" ./cmd/avis-client
go build -o "$TMP/avis-coord" ./cmd/avis-coord
go build -o "$TMP/portprobe" ./scripts/internal/portprobe

SIDE=256 LEVELS=4 IMAGES=2
SRV_ADDR=127.0.0.1:7471
COORD_ADDR=127.0.0.1:7671

# wait_port HOST:PORT — poll until something listens there.
wait_port() {
	i=0
	while ! "$TMP/portprobe" "$1" 2>/dev/null; do
		i=$((i + 1))
		[ $i -ge 50 ] && { echo "timeout waiting for $1" >&2; exit 1; }
		sleep 0.1
	done
}

echo "== direct session"
"$TMP/avis-server" -addr $SRV_ADDR -side $SIDE -levels $LEVELS -images $IMAGES &
SRV_PID=$!
wait_port $SRV_ADDR
"$TMP/avis-client" -addr $SRV_ADDR -n $IMAGES -level $LEVELS -dump "$TMP/direct.bin" >/dev/null
kill $SRV_PID
wait $SRV_PID 2>/dev/null || true
SRV_PID=

echo "== coordinator-placed session"
"$TMP/avis-coord" -addr $COORD_ADDR &
COORD_PID=$!
wait_port $COORD_ADDR
"$TMP/avis-server" -addr $SRV_ADDR -side $SIDE -levels $LEVELS -images $IMAGES \
	-coord $COORD_ADDR -heartbeat 200ms &
SRV_PID=$!
wait_port $SRV_ADDR
sleep 0.5 # let registration land
"$TMP/avis-client" -coord $COORD_ADDR -n $IMAGES -level $LEVELS -dump "$TMP/placed.bin" >/dev/null
kill $SRV_PID $COORD_PID
wait $SRV_PID $COORD_PID 2>/dev/null || true
SRV_PID= COORD_PID=

cmp "$TMP/direct.bin" "$TMP/placed.bin" || {
	echo "wire_conformance: placed session's dump differs from the direct session's" >&2
	exit 1
}
echo "   2/2 sessions byte-identical ($(wc -c <"$TMP/direct.bin") bytes each)"

echo "wire_conformance: OK"
