package bufpool

import "testing"

// A buffer Put drops — nil, or too small or too large for every class —
// costs no allocation: the session hands Put a nil payload on every round
// the decode memo answers.
func TestPutDropAllocatesNothing(t *testing.T) {
	small, giant := make([]byte, 10), make([]byte, 0, 1<<maxShift+1)
	for name, b := range map[string][]byte{"nil": nil, "small": small, "giant": giant} {
		if n := testing.AllocsPerRun(100, func() { Put(b) }); n != 0 {
			t.Errorf("Put(%s) allocates %v times", name, n)
		}
	}
}
