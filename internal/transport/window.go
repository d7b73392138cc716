package transport

import (
	"encoding/binary"
	"fmt"
)

// This file is the inference tag: the uvarint id that opens the payload of
// every per-inference frame. A session's inferences follow one another on
// the wire, so the tag routes nothing; the receiver checks it (core's
// session reader: sequential begins, frames only for the latest begun, the
// in-flight window) and turns misuse into a descriptive protocol error.

// AppendTag appends the uvarint inference id to dst — the payload prefix
// of every tagged frame.
func AppendTag(dst []byte, id uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], id)
	return append(dst, buf[:n]...)
}

// SplitTag splits a tagged payload into its inference id and the
// frame content. The content aliases payload (no copy).
func SplitTag(payload []byte) (id uint64, content []byte, err error) {
	id, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, fmt.Errorf("transport: malformed inference tag (%d payload bytes)", len(payload))
	}
	return id, payload[n:], nil
}
