package avis

// DecodeMemo and the functions below let tests run simulated workloads
// against a cold, a warm and no decode memo.
type DecodeMemo = decodeMemo

// NewDecodeMemo returns an empty memo under the production budget.
func NewDecodeMemo() *DecodeMemo { return newDecodeMemo(encodedBudget) }

// SetDecodeMemo makes m the memo of every testbed client built after it
// (nil: none) and returns the memo it replaced. Call it only while no
// client is being built.
func SetDecodeMemo(m *DecodeMemo) *DecodeMemo {
	old := sharedMemo
	sharedMemo = m
	return old
}
