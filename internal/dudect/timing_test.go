package dudect_test

import (
	"crypto/rand"
	"crypto/sha256"
	"math"
	"math/big"
	"os"
	"testing"

	"repro"
	"repro/internal/dudect"
)

// The host-side timing leg of the side-channel regression harness:
// hardened Sign and ECDH are timed with two adversarially chosen
// fixed secrets — minimal Hamming weight against dense — and gated on
// Welch's t. The default run is a smoke test: a sample count and
// threshold picked so that CI noise cannot trip it, while a
// catastrophic regression (say, the hardened flag silently falling
// back to the digit-branching fast path with its weight-dependent
// cost) still would. CT_FULL=1 runs the full-strength test
// (|t| < 4.5, the conventional dudect gate).

func timingParams() (samples int, threshold float64) {
	if os.Getenv("CT_FULL") == "1" {
		return 30000, 4.5
	}
	return 1500, 50
}

// timingKeys returns the two fixed secret classes.
func timingKeys(t *testing.T) [2]*repro.PrivateKey {
	t.Helper()
	dense, _ := new(big.Int).SetString(
		"5555555555555555555555555555555555555555555555555555555555", 16)
	var keys [2]*repro.PrivateKey
	for i, d := range []*big.Int{big.NewInt(1), dense} {
		raw := make([]byte, repro.PrivateKeySize)
		d.FillBytes(raw)
		k, err := repro.NewPrivateKey(raw)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k.Hardened()
	}
	return keys
}

func TestDudectHardenedSign(t *testing.T) {
	keys := timingKeys(t)
	samples, threshold := timingParams()
	digest := sha256.Sum256([]byte("dudect sign"))
	op := func(k *repro.PrivateKey) func() {
		return func() {
			if _, err := k.Sign(rand.Reader, digest[:], nil); err != nil {
				t.Error(err)
			}
		}
	}
	res := dudect.Measure(dudect.Options{Samples: samples, Seed: 42},
		[2]func(){op(keys[0]), op(keys[1])})
	t.Logf("sign: t = %.2f over %d samples/class (means %.0fns / %.0fns)",
		res.T, res.Samples, res.Class0Ns, res.Class1Ns)
	if math.Abs(res.T) > threshold {
		t.Errorf("hardened Sign timing depends on the secret: |t| = %.2f > %.1f", math.Abs(res.T), threshold)
	}
}

// fixedNonce is a random source whose every read is the same value,
// right-aligned: the nonce sampler accepts it on its first draw.
type fixedNonce struct{ v *big.Int }

func (f fixedNonce) Read(p []byte) (int, error) {
	f.v.FillBytes(p)
	return len(p), nil
}

// TestDudectHardenedSignNonce holds the key fixed and varies the
// nonce: hardened Sign reads a stream whose accepted nonce is 1 in one
// class and dense in the other, so the nonce's path — the sampler, its
// big.Int load into mod-n words, the safegcd inversion and the
// constant-time comb — is what gets timed.
func TestDudectHardenedSignNonce(t *testing.T) {
	key := timingKeys(t)[1]
	samples, threshold := timingParams()
	digest := sha256.Sum256([]byte("dudect sign nonce"))
	dense, _ := new(big.Int).SetString(
		"5555555555555555555555555555555555555555555555555555555555", 16)
	op := func(nonce *big.Int) func() {
		return func() {
			if _, err := key.Sign(fixedNonce{nonce}, digest[:], nil); err != nil {
				t.Error(err)
			}
		}
	}
	res := dudect.Measure(dudect.Options{Samples: samples, Seed: 47},
		[2]func(){op(big.NewInt(1)), op(dense)})
	t.Logf("sign nonce: t = %.2f over %d samples/class (means %.0fns / %.0fns)",
		res.T, res.Samples, res.Class0Ns, res.Class1Ns)
	if math.Abs(res.T) > threshold {
		t.Errorf("hardened Sign timing depends on the nonce: |t| = %.2f > %.1f", math.Abs(res.T), threshold)
	}
}

func TestDudectHardenedECDH(t *testing.T) {
	keys := timingKeys(t)
	samples, threshold := timingParams()
	peer, err := repro.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pub := peer.PublicKey()
	op := func(k *repro.PrivateKey) func() {
		return func() {
			if _, err := k.SharedSecret(pub); err != nil {
				t.Error(err)
			}
		}
	}
	res := dudect.Measure(dudect.Options{Samples: samples, Seed: 43},
		[2]func(){op(keys[0]), op(keys[1])})
	t.Logf("ecdh: t = %.2f over %d samples/class (means %.0fns / %.0fns)",
		res.T, res.Samples, res.Class0Ns, res.Class1Ns)
	if math.Abs(res.T) > threshold {
		t.Errorf("hardened ECDH timing depends on the secret: |t| = %.2f > %.1f", math.Abs(res.T), threshold)
	}
}

// TestDudectDetectsFastPath validates the detector against the
// knowingly variable-time subject: the FAST scalar multiplication's
// cost tracks the recoded digit density, so scalar weight must show
// up (this is the host analogue of the armv6m detector-validation
// test). Only run under CT_FULL=1 — at smoke sample counts the
// verdict is not reliable enough to gate on.
func TestDudectDetectsFastPath(t *testing.T) {
	if os.Getenv("CT_FULL") != "1" {
		t.Skip("detector validation needs CT_FULL=1 sample counts")
	}
	peer, err := repro.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pub := peer.PublicKey()
	// Fast (non-hardened) keys: weight-1 vs dense scalars drive very
	// different τNAF digit counts.
	dense, _ := new(big.Int).SetString(
		"5555555555555555555555555555555555555555555555555555555555", 16)
	var keys [2]*repro.PrivateKey
	for i, d := range []*big.Int{big.NewInt(1), dense} {
		raw := make([]byte, repro.PrivateKeySize)
		d.FillBytes(raw)
		k, err := repro.NewPrivateKey(raw)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	op := func(k *repro.PrivateKey) func() {
		return func() {
			if _, err := k.SharedSecret(pub); err != nil {
				t.Error(err)
			}
		}
	}
	res := dudect.Measure(dudect.Options{Samples: 30000, Seed: 44},
		[2]func(){op(keys[0]), op(keys[1])})
	t.Logf("fast ecdh: t = %.2f (means %.0fns / %.0fns)", res.T, res.Class0Ns, res.Class1Ns)
	if math.Abs(res.T) < 4.5 {
		t.Errorf("variable-time ECDH not detected (|t| = %.2f) — the timing harness is blind", math.Abs(res.T))
	}
}
