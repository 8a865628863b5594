package repro

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf233"
)

// smallOrderEncodings are the compressed encodings of the curve's three
// small-order points: (0, 1) of order 2, and (1, 0) and (1, 1) of
// order 4. With cofactor 4 and a cyclic Z₄ cofactor group, P + each of
// them spans the three cosets of the prime-order subgroup.
var smallOrderEncodings = [][]byte{
	append([]byte{0x02}, make([]byte, 30)...),
	append(append([]byte{0x02}, make([]byte, 29)...), 1),
	append(append([]byte{0x03}, make([]byte, 29)...), 1),
}

// torsionInputs returns a random subgroup point P and the six points a
// validator must reject: the three small-order points and P + each.
func torsionInputs(tb testing.TB, seed int64) (Point, []Point) {
	tb.Helper()
	p := mustKey(tb, seed).PublicKey().Point()
	var bad []Point
	for _, enc := range smallOrderEncodings {
		t, err := DecodePoint(enc)
		if err != nil {
			tb.Fatalf("small-order encoding %x does not decode: %v", enc, err)
		}
		if !bytes.Equal(EncodePointCompressed(t), enc) {
			tb.Fatalf("small-order encoding %x is not canonical", enc)
		}
		bad = append(bad, t, p.Add(t))
	}
	return p, bad
}

// unreducedPoints returns q with x, y and both coordinates written
// unreduced: the reduction polynomial f(z) = z^233 + z^74 + 1 added in,
// so each coordinate is the same field element with a bit above z^232.
// Only a hand-built Point can carry one; every decoder range-checks.
func unreducedPoints(q Point) []Point {
	f := func(a gf233.Elem) gf233.Elem {
		a[7] ^= 1 << 9
		a[2] ^= 1 << 10
		a[0] ^= 1
		return a
	}
	return []Point{
		{X: f(q.X), Y: q.Y},
		{X: q.X, Y: f(q.Y)},
		{X: f(q.X), Y: f(q.Y)},
	}
}

// TestTorsionRejectedAtEveryEntryPoint holds every public entry point
// that takes a peer, key, request or certificate point to the same
// subgroup check: each rejects the three small-order points and P +
// each of them, in every encoding it accepts, and accepts P itself.
// The entry points that take a Point also reject P and the six torsion
// inputs with unreduced coordinates, which pass the curve equation as
// the points they stand for but would be misread by the trace tests.
func TestTorsionRejectedAtEveryEntryPoint(t *testing.T) {
	p, bad := torsionInputs(t, 71)
	var unreduced []Point
	for _, q := range append([]Point{p}, bad...) {
		unreduced = append(unreduced, unreducedPoints(q)...)
	}
	ca := NewCA(mustKey(t, 72))
	self := mustKey(t, 73)
	eng := NewBatchEngine()
	defer eng.Close()
	id := []byte("node-torsion")

	entries := []struct {
		name  string
		raw   bool // takes a Point rather than an encoding
		check func(Point) error
	}{
		{"NewPublicKey/uncompressed", false, func(q Point) error {
			_, err := NewPublicKey(EncodePoint(q))
			return err
		}},
		{"NewPublicKey/compressed", false, func(q Point) error {
			_, err := NewPublicKey(EncodePointCompressed(q))
			return err
		}},
		{"PublicKeyFromPoint", true, func(q Point) error {
			_, err := PublicKeyFromPoint(q)
			return err
		}},
		{"ValidatePoint", true, ValidatePoint},
		{"ParseCert", false, func(q Point) error {
			_, err := ParseCert(EncodePointCompressed(q), id)
			return err
		}},
		{"CA.Issue/uncompressed", false, func(q Point) error {
			_, _, err := ca.Issue(EncodePoint(q), id, nil)
			return err
		}},
		{"CA.Issue/compressed", false, func(q Point) error {
			_, _, err := ca.Issue(EncodePointCompressed(q), id, nil)
			return err
		}},
		{"BatchEngine.SharedSecret", true, func(q Point) error {
			_, err := eng.SharedSecret(self, q)
			return err
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			if err := e.check(p); err != nil {
				t.Fatalf("rejected the subgroup point P: %v", err)
			}
			for i, q := range bad {
				if e.check(q) == nil {
					t.Errorf("accepted torsion input %d (%x)", i, EncodePointCompressed(q))
				}
			}
			if !e.raw {
				return
			}
			for i, q := range unreduced {
				if e.check(q) == nil {
					t.Errorf("accepted unreduced input %d (%v)", i, q)
				}
			}
		})
	}
}

func mustKey(tb testing.TB, seed int64) *PrivateKey {
	tb.Helper()
	priv, err := GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return priv
}
