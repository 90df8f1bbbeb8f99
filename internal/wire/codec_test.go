package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestCodecDecodeRules pins what the decoder accepts and refuses, field
// by field, on hand-built bodies of fuzzMsg.
func TestCodecDecodeRules(t *testing.T) {
	key := func(tag uint32, wt uint8) []byte { return appendUvarint(nil, uint64(tag)<<3|uint64(wt)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	id := cat(key(1, wtLen), []byte{2}, []byte("id"))
	count := func(v uint64) []byte { return cat(key(2, wtVarint), appendUvarint(nil, v)) }

	cases := []struct {
		name string
		body []byte
		want fuzzMsg // when err is ""
		err  string
	}{
		{"unknown tags are skipped",
			cat(key(50, wtVarint), []byte{0x7f}, key(51, wtFixed64), make([]byte, 8),
				key(52, wtLen), []byte{3}, []byte("new"), id, count(5)),
			fuzzMsg{ID: "id", Count: 5}, ""},
		{"a scalar sent twice: the last value wins", cat(id, count(5), count(9)),
			fuzzMsg{ID: "id", Count: 9}, ""},
		{"a known tag under the wrong wire type", cat(id, key(2, wtLen), []byte{1, 7}),
			fuzzMsg{}, "field 2 arrived as wire type 2, want 0"},
		{"a required field absent from a non-empty body", count(5),
			fuzzMsg{}, "required field 1 absent"},
		{"a required field absent from an empty body", nil,
			fuzzMsg{}, "required field 1 absent"},
		{"a truncated varint", cat(id, key(2, wtVarint), []byte{0x80}),
			fuzzMsg{}, "truncated varint"},
		{"an overlong varint", cat(id, key(2, wtVarint), bytes.Repeat([]byte{0x80}, 10), []byte{1}),
			fuzzMsg{}, "varint overflows 64 bits"},
		{"tag 0", cat(id, key(0, wtVarint), []byte{1}),
			fuzzMsg{}, "field tag 0"},
		{"reserved wire type 7", cat(id, key(2, 7), []byte{1}),
			fuzzMsg{}, "unknown wire type 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got fuzzMsg
			err := got.parse(tc.body)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("error %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decodes to %+v (err %v), want %+v", got, err, tc.want)
			}
		})
	}
}
