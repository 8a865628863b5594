package fp

import "testing"

func TestCombaCounts(t *testing.T) {
	c6 := CombaCounts(6)
	c8 := CombaCounts(8)
	// Quadratic growth in the limb count.
	if c8.Mul32 != 4*64 || c6.Mul32 != 4*36 {
		t.Errorf("MUL counts: %d, %d", c6.Mul32, c8.Mul32)
	}
	if c8.Cycles() <= c6.Cycles() {
		t.Error("cycle count not monotonic in limbs")
	}
	if c8.Total() <= 0 || c8.Cycles() < c8.Total() {
		t.Error("cycle estimate below instruction count")
	}
	// The MUL+ADD share dominates the shift share — the §3.1 signature
	// of prime-field arithmetic.
	if c8.Mul32+c8.Add <= c8.Shift {
		t.Error("prime-field mix is not MUL/ADD dominated")
	}
}
