package compress

import "fmt"

// rle1AppendEncode appends the Bzip2-style pre-transform run-length
// encoding of src: runs of 4–259 equal bytes become the four bytes followed
// by a count byte (run length − 4). It bounds the cost of the suffix sort
// on highly repetitive input. Literal stretches are copied whole.
func rle1AppendEncode(dst, src []byte) []byte {
	lit := 0 // start of the literal stretch not yet copied
	for i := 0; i+3 < len(src); {
		// Every four-byte window starting at i, i+1 or i+2 covers i+2 and
		// i+3: if those differ, none of the three starts a run.
		if src[i+3] != src[i+2] {
			i += 3
			continue
		}
		b := src[i]
		if src[i+1] != b || src[i+2] != b {
			i++
			continue
		}
		run := 4
		for i+run < len(src) && src[i+run] == b && run < 259 {
			run++
		}
		dst = append(dst, src[lit:i]...)
		dst = append(dst, b, b, b, b, byte(run-4))
		i += run
		lit = i
	}
	return append(dst, src[lit:]...)
}

// rle1AppendDecode inverts rle1AppendEncode.
func rle1AppendDecode(dst, src []byte) ([]byte, error) {
	lit := 0
	for i := 0; i+3 < len(src); {
		// The same scan as the encoder's: the leftmost four equal bytes
		// are a run head, whatever follows is its count.
		if src[i+3] != src[i+2] {
			i += 3
			continue
		}
		b := src[i]
		if src[i+1] != b || src[i+2] != b {
			i++
			continue
		}
		if i+4 >= len(src) {
			return nil, fmt.Errorf("compress: rle1 truncated run")
		}
		dst = append(dst, src[lit:i+4]...)
		base := len(dst)
		dst = growBytes(dst, int(src[i+4]))
		fill := dst[base:]
		for k := range fill {
			fill[k] = b
		}
		i += 5
		lit = i
	}
	return append(dst, src[lit:]...), nil
}

// mtfEncodeInto writes the move-to-front transform of src into dst
// (len(dst) ≥ len(src)).
func mtfEncodeInto(dst, src []byte) {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	for i, b := range src {
		// Search and shift in one pass: each entry passed over moves down
		// one slot as it is compared, so there is no second walk (and no
		// memmove call) once b is found. Rank 0, the common case after a
		// BWT, touches nothing.
		prev := table[0]
		if prev == b {
			dst[i] = 0
			continue
		}
		table[0] = b
		j := uint8(1) // b is in the table, so j cannot wrap
		for ; ; j++ {
			cur := table[j]
			table[j] = prev
			if cur == b {
				break
			}
			prev = cur
		}
		dst[i] = j
	}
}

// zrleAppendEncode run-length-codes the zero bytes that dominate MTF
// output: each zero run becomes a 0x00 marker followed by length bytes (255
// means "255 and continue"). Non-zero bytes pass through.
func zrleAppendEncode(dst, src []byte) []byte {
	i := 0
	for i < len(src) {
		if src[i] != 0 {
			dst = append(dst, src[i])
			i++
			continue
		}
		run := 0
		for i+run < len(src) && src[i+run] == 0 {
			run++
		}
		i += run
		dst = append(dst, 0)
		for run >= 255 {
			dst = append(dst, 255)
			run -= 255
		}
		dst = append(dst, byte(run))
	}
	return dst
}

// zrleMTFAppendDecode inverts zrleAppendEncode and mtfEncodeInto in one
// pass: src is a ZRLE stream of move-to-front ranks, the bytes they stand
// for are appended to dst. A zero run is a fill with the front of the list
// and leaves the list alone; no rank buffer sits between the two stages.
// A run that takes the output past bzwMaxSyms bytes is refused before it is
// made (the rest of the output is no longer than src).
func zrleMTFAppendDecode(dst, src []byte) ([]byte, error) {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	base := len(dst)
	for i := 0; i < len(src); {
		j := src[i]
		i++
		if j != 0 {
			b := table[j]
			copy(table[1:int(j)+1], table[:j])
			table[0] = b
			dst = append(dst, b)
			continue
		}
		run := 0
		for ; i < len(src) && src[i] == 255; i++ {
			run += 255
		}
		if i >= len(src) {
			return nil, fmt.Errorf("compress: zrle truncated run length")
		}
		run += int(src[i])
		i++
		at := len(dst)
		if at-base+run > bzwMaxSyms {
			return nil, &bzwBlockSizeError{at - base + run}
		}
		dst = growBytes(dst, run)
		fill, front := dst[at:], table[0]
		for k := range fill {
			fill[k] = front
		}
	}
	return dst, nil
}
