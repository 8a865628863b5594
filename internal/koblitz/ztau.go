// Package koblitz implements the τ-adic scalar arithmetic behind the
// paper's point multiplication: exact arithmetic in the ring Z[τ],
// partial reduction of scalars modulo δ = (τ^m − 1)/(τ − 1), and the
// TNAF/width-w TNAF recodings (Solinas; Hankerson et al. §3.4).
//
// The paper delegates "the TNAF precomputation, and TNAF transformation
// of the scalar k" to the RELIC toolkit (§4.2.2); this package plays
// that role. The Frobenius endomorphism τ of sect233k1 satisfies
// τ² + 2 = µτ with µ = −1 (curve coefficient a = 0), so Z[τ] is the
// quadratic ring Z[x]/(x² + x + 2).
//
// The package has three pipelines with one digit semantics:
//
//   - the reference, PartMod + WTNAF on big.Int (ZTau): the oracle of
//     the tests, and what the M0+ model (internal/profile,
//     internal/codegen) recodes through;
//   - the fast Scratch path (Recode, RecodeWide, RecodeInto,
//     RecodeIntInto) for every host scalar multiplication: partial
//     reduction on fixed-width words for 0 ≤ k < 2^233 and a digit loop
//     on two-word residues, digit-for-digit equal to the reference.
//     Any other big.Int scalar is reduced by PartMod and then enters
//     the same loop;
//   - the constant-time RecodeCT of the hardened signing path.
package koblitz

import (
	"fmt"
	"math/big"
	"sync"
)

// Mu is the Koblitz-curve sign constant µ = −1 for sect233k1 (a = 0).
const Mu = -1

// M is the extension degree of the underlying field.
const M = 233

// ZTau is an element a + b·τ of Z[τ]. Values are immutable by
// convention: operations allocate fresh big integers.
type ZTau struct {
	A, B *big.Int
}

// NewZTau returns the element a + b·τ for small integers.
func NewZTau(a, b int64) ZTau {
	return ZTau{big.NewInt(a), big.NewInt(b)}
}

// FromInt embeds an ordinary integer scalar into Z[τ].
func FromInt(k *big.Int) ZTau {
	return ZTau{new(big.Int).Set(k), new(big.Int)}
}

// IsZero reports whether z is zero.
func (z ZTau) IsZero() bool { return z.A.Sign() == 0 && z.B.Sign() == 0 }

// Equal reports whether z and w are the same element.
func (z ZTau) Equal(w ZTau) bool {
	return z.A.Cmp(w.A) == 0 && z.B.Cmp(w.B) == 0
}

// Add returns z + w.
func (z ZTau) Add(w ZTau) ZTau {
	return ZTau{new(big.Int).Add(z.A, w.A), new(big.Int).Add(z.B, w.B)}
}

// Sub returns z - w.
func (z ZTau) Sub(w ZTau) ZTau {
	return ZTau{new(big.Int).Sub(z.A, w.A), new(big.Int).Sub(z.B, w.B)}
}

// Neg returns -z.
func (z ZTau) Neg() ZTau {
	return ZTau{new(big.Int).Neg(z.A), new(big.Int).Neg(z.B)}
}

// Mul returns z·w, using τ² = µτ − 2:
//
//	(a0 + b0τ)(a1 + b1τ) = a0a1 − 2b0b1 + (a0b1 + a1b0 + µb0b1)τ.
func (z ZTau) Mul(w ZTau) ZTau {
	a0a1 := new(big.Int).Mul(z.A, w.A)
	b0b1 := new(big.Int).Mul(z.B, w.B)
	a0b1 := new(big.Int).Mul(z.A, w.B)
	a1b0 := new(big.Int).Mul(w.A, z.B)

	re := new(big.Int).Sub(a0a1, new(big.Int).Lsh(b0b1, 1))
	im := new(big.Int).Add(a0b1, a1b0)
	if Mu < 0 {
		im.Sub(im, b0b1)
	} else {
		im.Add(im, b0b1)
	}
	return ZTau{re, im}
}

// MulTau returns z·τ without a general multiplication:
// τ(a + bτ) = −2b + (a + µb)τ.
func (z ZTau) MulTau() ZTau {
	re := new(big.Int).Lsh(z.B, 1)
	re.Neg(re)
	im := new(big.Int).Set(z.A)
	if Mu < 0 {
		im.Sub(im, z.B)
	} else {
		im.Add(im, z.B)
	}
	return ZTau{re, im}
}

// Conj returns the conjugate τ̄ = µ − τ applied to z:
// conj(a + bτ) = (a + µb) − bτ.
func (z ZTau) Conj() ZTau {
	re := new(big.Int).Set(z.A)
	if Mu < 0 {
		re.Sub(re, z.B)
	} else {
		re.Add(re, z.B)
	}
	return ZTau{re, new(big.Int).Neg(z.B)}
}

// Norm returns N(z) = z·conj(z) = a² + µab + 2b², a non-negative integer.
func (z ZTau) Norm() *big.Int {
	a2 := new(big.Int).Mul(z.A, z.A)
	ab := new(big.Int).Mul(z.A, z.B)
	b2 := new(big.Int).Mul(z.B, z.B)
	n := new(big.Int).Lsh(b2, 1)
	n.Add(n, a2)
	if Mu < 0 {
		n.Sub(n, ab)
	} else {
		n.Add(n, ab)
	}
	return n
}

// DivTau returns z/τ and whether the division is exact (τ | z iff the
// rational part is even): (a + bτ)/τ = (b + µa/2) − (a/2)τ.
func (z ZTau) DivTau() (ZTau, bool) {
	if z.A.Bit(0) != 0 {
		return ZTau{}, false
	}
	half := new(big.Int).Rsh(z.A, 1)
	re := new(big.Int).Set(z.B)
	if Mu < 0 {
		re.Sub(re, half)
	} else {
		re.Add(re, half)
	}
	return ZTau{re, new(big.Int).Neg(half)}, true
}

// String renders z as "a + b·τ".
func (z ZTau) String() string {
	return fmt.Sprintf("%v + %v·τ", z.A, z.B)
}

// TauPow returns τ^i as an element of Z[τ], via the recurrence
// τ^(i+1) = µτ^i − 2τ^(i−1) (equivalently repeated MulTau).
func TauPow(i int) ZTau {
	if i < 0 {
		panic("koblitz: negative power of τ")
	}
	z := NewZTau(1, 0)
	for ; i > 0; i-- {
		z = z.MulTau()
	}
	return z
}

// deltaCached holds δ, computed once: the 233-step τ-power sum is far
// too expensive to redo on every partial reduction (PartMod sits on the
// per-scalar-multiplication hot path). deltaConj and deltaNorm cache
// conj(δ) and N(δ) alongside, since every partial reduction needs both
// and recomputing the 466-bit norm per call is pure waste. All three
// are immutable after the Once completes; readers share them without
// locks (the lock-free table contract the race tests pin down).
var (
	deltaOnce   sync.Once
	deltaCached ZTau
	deltaConj   ZTau
	deltaNorm   *big.Int
)

// deltaInit populates the δ caches exactly once.
func deltaInit() {
	deltaOnce.Do(func() {
		sumA, sumB := new(big.Int), new(big.Int)
		z := NewZTau(1, 0)
		for i := 0; i < M; i++ {
			sumA.Add(sumA, z.A)
			sumB.Add(sumB, z.B)
			z = z.MulTau()
		}
		deltaCached = ZTau{sumA, sumB}
		deltaConj = deltaCached.Conj()
		deltaNorm = deltaCached.Norm()
	})
}

// Delta returns δ = (τ^m − 1)/(τ − 1) = Σ_{i=0}^{m−1} τ^i, the modulus
// of the partial reduction. δ annihilates the prime-order subgroup of
// E(F_2^m), which is why reducing k mod δ preserves k·P. The value is
// computed once and returned as a defensive copy.
func Delta() ZTau {
	deltaInit()
	return ZTau{
		new(big.Int).Set(deltaCached.A),
		new(big.Int).Set(deltaCached.B),
	}
}

// RoundDiv returns the element q of Z[τ] nearest to the exact quotient
// x/y under the norm (Solinas' "Rounding off" routine, Routine 60),
// together with the remainder r = x − q·y. The remainder satisfies
// N(r) ≤ (4/7)·N(y), the bound that makes TNAF lengths short.
func RoundDiv(x, y ZTau) (q, r ZTau) {
	if y.IsZero() {
		panic("koblitz: division by zero")
	}
	n := y.Norm()          // > 0
	num := x.Mul(y.Conj()) // exact: x/y = (num.A + num.B·τ)/n
	q = roundLattice(num.A, num.B, n)
	return q, x.Sub(q.Mul(y))
}

// roundLattice rounds the exact rational coordinates (num0/den,
// num1/den) to the norm-nearest element of Z[τ] (Solinas Routine 60).
// All of Solinas' comparisons are against small constants, so the
// rationals are kept as integer numerators over the common (positive)
// denominator den — no big.Rat machinery on the recoding hot path.
func roundLattice(num0, num1, den *big.Int) ZTau {
	f0, e0 := roundNearest(num0, den)
	f1, e1 := roundNearest(num1, den)
	// η = 2η0 + µη1 with ηi = λi − fi; etaD holds η·den, and every
	// threshold c on η becomes a comparison against c·den.
	etaD := new(big.Int).Lsh(e0, 1)
	if Mu < 0 {
		etaD.Sub(etaD, e1)
	} else {
		etaD.Add(etaD, e1)
	}
	// t1 = (η0 − 3µη1)·den, t2 = (η0 + 4µη1)·den.
	t1 := new(big.Int).Mul(big.NewInt(3*int64(Mu)), e1)
	t1.Sub(e0, t1)
	t2 := new(big.Int).Mul(big.NewInt(4*int64(Mu)), e1)
	t2.Add(e0, t2)
	negDen := new(big.Int).Neg(den)
	twoDen := new(big.Int).Lsh(den, 1)
	negTwoDen := new(big.Int).Neg(twoDen)

	h0, h1 := int64(0), int64(0)
	if etaD.Cmp(den) >= 0 {
		if t1.Cmp(negDen) < 0 {
			h1 = int64(Mu)
		} else {
			h0 = 1
		}
	} else {
		if t2.Cmp(twoDen) >= 0 {
			h1 = int64(Mu)
		}
	}
	if etaD.Cmp(negDen) < 0 {
		if t1.Cmp(den) >= 0 {
			h1 = -int64(Mu)
		} else {
			h0 = -1
		}
	} else {
		if t2.Cmp(negTwoDen) < 0 {
			h1 = -int64(Mu)
		}
	}
	q0 := new(big.Int).Add(f0, big.NewInt(h0))
	q1 := new(big.Int).Add(f1, big.NewInt(h1))
	return ZTau{q0, q1}
}

// roundNearest rounds num/den (den > 0) to the nearest integer f (ties
// toward +∞) and returns the residue num − f·den, i.e. the numerator of
// the exact remainder over den.
func roundNearest(num, den *big.Int) (*big.Int, *big.Int) {
	// f = floor((2·num + den) / (2·den))
	t := new(big.Int).Lsh(num, 1)
	t.Add(t, den)
	f := new(big.Int).Div(t, new(big.Int).Lsh(den, 1)) // Euclidean floor
	res := new(big.Int).Mul(f, den)
	res.Sub(num, res)
	return f, res
}

// PartMod reduces the scalar k modulo δ (Solinas' partial reduction):
// the returned ρ satisfies ρ ≡ k (mod δ), so ρ·P = k·P on the
// prime-order subgroup, and N(ρ) is small enough that TNAF(ρ) has
// length ≈ m. This is the "TNAF Representation" phase of Table 7.
func PartMod(k *big.Int) ZTau {
	_, r := RoundDiv(FromInt(k), Delta())
	return r
}
