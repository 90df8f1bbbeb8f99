// Copyright 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Suffix array construction by induced sorting (SA-IS, Nong, Zhang and
// Chen, "Two Efficient Algorithms for Linear Time Suffix Array
// Construction", section 3), adapted from index/suffixarray/sais.go of the
// Go distribution, whose LICENSE the header refers to. Only the int32-index
// path is kept; its generated per-type copies (_8_32, _32) are one set of
// functions generic over the character type — bytes at the top level,
// LMS-substring names in the recursion; all levels share one bucket array,
// sized by the caller so nothing is allocated.
//
// A fixed number of linear passes reduces the problem to one at most half
// as big (the LMS-substrings, renamed by rank), which is solved recursively
// and expanded back by two more induction passes: T(N) = O(N) + T(N/2) =
// O(N). Suffixes are ordered against an imaginary sentinel smaller than
// every character, so a proper prefix of a suffix sorts before it.

package compress

// saisChar is a text character: a byte, or an LMS-substring name.
type saisChar interface{ byte | int32 }

// sais computes the suffix array of text, whose characters lie in
// [0, textMax), into sa, which the caller must have zeroed. tmp is bucket
// space shared by every level of the recursion: len(tmp) ≥ 2·textMax, and
// ≥ len(text) so that no deeper level (at most len(text)/2 names) ever
// needs more.
func sais[T saisChar](text []T, textMax int, sa, tmp []int32) {
	if len(text) <= 1 {
		return // sa is zeroed: right for one suffix, vacuous for none
	}
	freq, bucket := tmp[:textMax], tmp[textMax:2*textMax]
	saisFreq(text, freq, bucket)

	// Each call below makes one scan through sa.
	numLMS := saisPlaceLMS(text, sa, freq, bucket)
	if numLMS > 1 {
		saisInduceSubL(text, sa, freq, bucket)
		saisInduceSubS(text, sa, freq, bucket)
		saisLength(text, textMax, sa)
		maxID := saisAssignID(text, sa, numLMS)
		if maxID < numLMS {
			// Some LMS-substrings repeat. Pack the IDs saisAssignID
			// scattered over the bottom half of sa, less one so they start
			// at 0, into the top of sa in text order, and sort that text
			// recursively into the bottom of sa.
			w := len(sa)
			for i := len(sa) / 2; i >= 0; i-- {
				if j := sa[i]; j > 0 {
					w--
					sa[w] = j - 1
				}
			}
			clear(sa[:numLMS])
			sais(sa[len(sa)-numLMS:], maxID, sa[:numLMS], tmp)
			saisUnmap(text, sa, numLMS)
			saisFreq(text, freq, bucket) // the recursion overwrote tmp
		} else {
			// Every LMS-substring is unique, so the LMS-suffix order is
			// the LMS-substring order already sitting in the top of sa.
			copy(sa, sa[len(sa)-numLMS:])
		}
		saisExpand(text, freq, bucket, sa, numLMS)
	}
	saisInduceL(text, sa, freq, bucket)
	saisInduceS(text, sa, freq, bucket)
}

// saisFreq counts the characters of text into freq, using bucket (free
// until a pass fills it) for the second half of the text: runs of one
// character (zeros, in coefficient data) otherwise serialize on a single
// counter.
func saisFreq[T saisChar](text []T, freq, bucket []int32) {
	clear(freq)
	clear(bucket)
	half := len(text) / 2
	lo, hi := text[:half], text[half:]
	for i, c := range lo {
		freq[c]++
		bucket[hi[i]]++
	}
	if len(hi) > half {
		freq[hi[half]]++
	}
	for c, n := range bucket {
		freq[c] += n
	}
}

// saisBucketMin stores into bucket[c] the first index of character c's
// bucket in a bucket sort of the text; saisBucketMax, one past its last.
func saisBucketMin(freq, bucket []int32) {
	total := int32(0)
	for c, n := range freq {
		bucket[c] = total
		total += n
	}
}

func saisBucketMax(freq, bucket []int32) {
	total := int32(0)
	for c, n := range freq {
		total += n
		bucket[c] = total
	}
}

// saisPlaceLMS places the indexes of the final characters of the
// LMS-substrings of text into the right-hand ends of their buckets in sa
// and returns how many there are. The final LMS-substring ends at the
// imaginary sentinel, which has no bucket: the caller pretends
// sa[-1] == len(text). LMS indexes are always ≥ 1, so 0 marks an empty
// slot here and in every pass up to saisInduceL.
func saisPlaceLMS[T saisChar](text []T, sa, freq, bucket []int32) int {
	saisBucketMax(freq, bucket)
	numLMS := 0
	lastB := int32(-1)

	// The "LMS-substring iterator", repeated wherever LMS positions are
	// enumerated (a callback would cost too much): scanning backward with
	// c0 = text[i], c1 = text[i+1], position i is type S if c0 < c1, or
	// c0 == c1 and i+1 is type S; else type L. The body runs where i is
	// type L and i+1 type S: i+1 starts an LMS-substring. Position
	// len(text) is type S too, but starting with isTypeS false leaves it
	// out — it has nowhere to be stored.
	var c0, c1 T
	isTypeS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0, c1 = text[i], c0
		if c0 < c1 {
			isTypeS = true
		} else if c0 > c1 && isTypeS {
			isTypeS = false
			b := bucket[c1] - 1
			bucket[c1] = b
			sa[b] = int32(i + 1)
			lastB = b
			numLMS++
		}
	}
	// Each start is also the end of the LMS-substring before it, except
	// the leftmost (written last), which is dropped. With numLMS ≤ 1 the
	// caller skips the recursion and wants starts, so it stays.
	if numLMS > 1 {
		sa[lastB] = 0
	}
	return numLMS
}

// saisInduceSubL inserts the L-type indexes of the LMS-substrings into sa,
// given their final characters at the right-hand ends of their buckets,
// and leaves behind only the leftmost L-type index of each. Scanning left
// to right, each sa[i] = j > 0 is a sorted entry whose predecessor k = j-1
// is type L, so k can be placed now, at the left of text[k]'s bucket,
// always ahead of the scan: sa is input, output and work queue at once. k
// is negated when k-1 is type S, which ends the chain and leaves k for
// saisInduceSubS.
func saisInduceSubL[T saisChar](text []T, sa, freq, bucket []int32) {
	saisBucketMin(freq, bucket)

	// The implicit entry sa[-1] == len(text) comes first.
	k := len(text) - 1
	c0, c1 := text[k-1], text[k]
	if c0 < c1 {
		k = -k
	}
	// b caches bucket[cB]: successive entries mostly share a bucket.
	cB := c1
	b := bucket[cB]
	sa[b] = int32(k)
	b++

	for i := 0; i < len(sa); i++ {
		j := int(sa[i])
		if j == 0 {
			continue
		}
		if j < 0 {
			sa[i] = int32(-j)
			continue
		}
		sa[i] = 0
		k := j - 1
		c0, c1 := text[k-1], text[k]
		if c0 < c1 {
			k = -k
		}
		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		sa[b] = int32(k)
		b++
	}
}

// saisInduceSubS is the mirror pass: scanning right to left it inserts the
// S-type indexes given the leftmost L-type ones, and leaves only the
// LMS-substring start indexes, sorted by LMS-substring, packed into
// sa[len(sa)-numLMS:].
func saisInduceSubS[T saisChar](text []T, sa, freq, bucket []int32) {
	saisBucketMax(freq, bucket)
	var cB T
	b := bucket[cB]
	top := len(sa)
	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i])
		if j == 0 {
			continue
		}
		sa[i] = 0
		if j < 0 {
			// An LMS-substring start: compact it into the top of sa.
			top--
			sa[top] = int32(-j)
			continue
		}
		k := j - 1
		c1 := text[k]
		c0 := text[k-1]
		if c0 > c1 {
			k = -k
		}
		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		b--
		sa[b] = int32(k)
	}
}

// saisLength records the length of the LMS-substring starting at index j
// in sa[j/2] (j-1 is type L and starts none; the bottom half of sa is
// free). The final one gets the otherwise impossible length 0: it alone
// ends at the sentinel and must compare unequal to all others without its
// text being read. When characters fit a byte, a substring of at most four
// records the characters themselves instead — each plus one, packed, then
// inverted — if that word is ≥ len(text) and so no valid length;
// saisAssignID then never reads the text for such a pair. (No LMS-substring
// starts or ends with the largest character, so the packed form has no
// leading or trailing zero byte and determines the length.)
func saisLength[T saisChar](text []T, textMax int, sa []int32) {
	pack := textMax <= 256
	end := 0 // end of the current LMS-substring; 0 for the final one
	cx := uint32(0)
	var c0, c1 T
	isTypeS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0, c1 = text[i], c0
		if pack {
			cx = cx<<8 | uint32(uint8(c1)+1)
		}
		if c0 < c1 {
			isTypeS = true
		} else if c0 > c1 && isTypeS {
			isTypeS = false
			j := i + 1
			var code int32
			if end != 0 {
				code = int32(end - j)
				if pack && code <= 4 && ^cx >= uint32(len(text)) {
					code = int32(^cx)
				}
			}
			sa[j>>1] = code
			end = j + 1
			cx = uint32(uint8(c1) + 1)
		}
	}
}

// saisAssignID numbers the LMS-substrings densely from 1 in string order,
// equal substrings sharing a number, and returns the largest number. The
// sorted starts are in sa[len(sa)-numLMS:]; the ID of the substring at
// index j replaces its length in sa[j/2].
func saisAssignID[T saisChar](text []T, sa []int32, numLMS int) int {
	id := 0
	lastLen := int32(-1)
	lastPos := int32(0)
	for _, j := range sa[len(sa)-numLMS:] {
		n := sa[j/2]
		same := n == lastLen
		if same && uint32(n) < uint32(len(text)) {
			// A real length (not packed text): compare the texts.
			this := text[j:][:n]
			last := text[lastPos:][:n]
			for i := range this {
				if this[i] != last[i] {
					same = false
					break
				}
			}
		}
		if !same {
			id++
			lastPos = j
			lastLen = n
		}
		sa[j/2] = int32(id)
	}
	return id
}

// saisUnmap turns the subproblem's suffix array in sa[:numLMS], which
// counts LMS-substrings, back into text indexes.
func saisUnmap[T saisChar](text []T, sa []int32, numLMS int) {
	unmap := sa[len(sa)-numLMS:]
	j := len(unmap)
	var c0, c1 T
	isTypeS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0, c1 = text[i], c0
		if c0 < c1 {
			isTypeS = true
		} else if c0 > c1 && isTypeS {
			isTypeS = false
			j--
			unmap[j] = int32(i + 1)
		}
	}
	sa = sa[:numLMS]
	for i, k := range sa {
		sa[i] = unmap[k]
	}
}

// saisExpand spreads the sorted LMS-suffix indexes in sa[:numLMS] out to
// the right-hand ends of their buckets, in order, zeroing every other slot
// for saisInduceL to fill.
func saisExpand[T saisChar](text []T, freq, bucket, sa []int32, numLMS int) {
	saisBucketMax(freq, bucket)
	x := numLMS - 1
	saX := sa[x]
	c := text[saX]
	b := bucket[c] - 1
	bucket[c] = b
	for i := len(sa) - 1; i >= 0; i-- {
		if i != int(b) {
			sa[i] = 0
			continue
		}
		sa[i] = saX
		if x > 0 {
			x--
			saX = sa[x]
			c = text[saX]
			b = bucket[c] - 1
			bucket[c] = b
		}
	}
}

// saisInduceL inserts every L-type index into sa given the sorted
// LMS-suffixes, as saisInduceSubL did for substrings, but keeps every
// entry; leftmost L-type indexes are left negated for saisInduceS to start
// from. Index 0 has no predecessor and is simply placed: an empty slot and
// a real 0 need no telling apart, the finished array holds exactly one 0.
func saisInduceL[T saisChar](text []T, sa, freq, bucket []int32) {
	saisBucketMin(freq, bucket)
	k := len(text) - 1
	c0, c1 := text[k-1], text[k]
	if c0 < c1 {
		k = -k
	}
	cB := c1
	b := bucket[cB]
	sa[b] = int32(k)
	b++
	for i := 0; i < len(sa); i++ {
		j := int(sa[i])
		if j <= 0 {
			continue
		}
		k := j - 1
		c1 := text[k]
		if k > 0 {
			if c0 := text[k-1]; c0 < c1 {
				k = -k
			}
		}
		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		sa[b] = int32(k)
		b++
	}
}

// saisInduceS completes the suffix array: scanning right to left, each
// negated entry is made positive and its S-type predecessor placed,
// negated again while the chain continues.
func saisInduceS[T saisChar](text []T, sa, freq, bucket []int32) {
	saisBucketMax(freq, bucket)
	var cB T
	b := bucket[cB]
	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i])
		if j >= 0 {
			continue
		}
		j = -j
		sa[i] = int32(j)
		k := j - 1
		c1 := text[k]
		if k > 0 {
			if c0 := text[k-1]; c0 <= c1 {
				k = -k
			}
		}
		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		b--
		sa[b] = int32(k)
	}
}
