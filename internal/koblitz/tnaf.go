package koblitz

import (
	"fmt"
	"math/big"
	"sync"
)

// TNAF and width-w TNAF recodings (Solinas; Hankerson et al. Alg. 3.61
// and 3.69). The paper uses "the left-to-right wTNAF method with w = 4"
// for random-point multiplication and w = 6 for fixed-point
// multiplication (§4.2.2).

// MinW and MaxW bound the window widths of the int8 digit pipeline
// (|u| < 2^(w-1) fits int8 up to w = 8): every per-call recoding path
// uses it. MaxWide bounds the int16 wide-window pipeline (RecodeWide)
// that serves precomputed-table consumers — the joint double-scalar
// verifier — where table size is sunk cost and only digit density
// matters.
const (
	MinW    = 2
	MaxW    = 8
	MaxWide = 12
)

// Digit constrains the recoding digit representations: int8 for the
// per-call widths, int16 for the wide precomputed-table widths.
type Digit interface{ ~int8 | ~int16 }

// maxDigits caps recoding length as a defence against non-termination
// bugs: a partially reduced scalar recodes to ~m+a digits and a raw
// 233-bit scalar to ~2m, so 4m is generous.
const maxDigits = 4 * M

// TNAF returns the τ-adic non-adjacent form of ρ: digits d_i ∈ {0, ±1},
// least significant first, with no two consecutive nonzero digits, such
// that ρ = Σ d_i τ^i.
func TNAF(rho ZTau) []int8 {
	r0 := new(big.Int).Set(rho.A)
	r1 := new(big.Int).Set(rho.B)
	digits := make([]int8, 0, M+8)
	two := big.NewInt(2)
	four := big.NewInt(4)
	t := new(big.Int)
	uInt := new(big.Int)
	half := new(big.Int)
	for r0.Sign() != 0 || r1.Sign() != 0 {
		if r0.BitLen() <= smallBits && r1.BitLen() <= smallBits {
			// The residues shrink by roughly a bit per digit; once both
			// fit in machine words the big.Int loop is pure overhead.
			return tnafSmall(r0.Int64(), r1.Int64(), digits)
		}
		if len(digits) > maxDigits {
			panic("koblitz: TNAF did not terminate")
		}
		var u int8
		if r0.Bit(0) == 1 {
			// u = 2 − ((r0 − 2r1) mod 4) ∈ {1, −1}; subtracting u makes
			// ρ divisible by τ².
			t.Mul(two, r1)
			t.Sub(r0, t)
			t.Mod(t, four) // 1 or 3 for odd r0
			u = int8(2 - t.Int64())
			r0.Sub(r0, uInt.SetInt64(int64(u)))
		}
		digits = append(digits, u)
		divTauInPlace(r0, r1, half)
	}
	return digits
}

// divTauInPlace replaces (r0, r1) with (r0 + r1τ)/τ, assuming r0 even:
// (r0, r1) ← (r1 + µ·r0/2, −r0/2). half is caller-provided scratch —
// the recoding loops run this once per digit.
func divTauInPlace(r0, r1, half *big.Int) {
	half.Rsh(r0, 1)
	if Mu < 0 {
		r0.Sub(r1, half)
	} else {
		r0.Add(r1, half)
	}
	r1.Neg(half)
}

// smallBits is the residue size below which the recodings switch to the
// int64 loops. The norm N(r0 + r1τ) ≥ 0.79·(r0² + r1²) only shrinks
// under τ division, and subtracting a window representative adds at
// most a few bits of headroom, so entering at 60 bits keeps every
// intermediate comfortably inside int64.
const smallBits = 60

// tnafSmall finishes a TNAF recoding on machine words, in any digit
// representation.
func tnafSmall[T Digit](r0, r1 int64, digits []T) []T {
	for r0 != 0 || r1 != 0 {
		if len(digits) > maxDigits {
			panic("koblitz: TNAF did not terminate")
		}
		var u int64
		if r0&1 == 1 {
			// u = 2 − ((r0 − 2r1) mod 4); two's complement makes the
			// unsigned masked arithmetic exact mod 4.
			t := (uint64(r0) - 2*uint64(r1)) & 3
			u = 2 - int64(t)
			r0 -= u
		}
		digits = append(digits, T(u))
		half := r0 >> 1
		if Mu < 0 {
			r0 = r1 - half
		} else {
			r0 = r1 + half
		}
		r1 = -half
	}
	return digits
}

// wtnafSmall finishes a width-w TNAF recoding on machine words, in any
// digit representation.
func wtnafSmall[T Digit](r0, r1 int64, w int, tw int64, alphaA, alphaB []int64, digits []T) []T {
	mask := uint64(1)<<w - 1
	halfW := int64(1) << (w - 1)
	for r0 != 0 || r1 != 0 {
		if len(digits) > maxDigits {
			panic("koblitz: WTNAF did not terminate")
		}
		var u int64
		if r0&1 == 1 {
			// u = (r0 + r1·t_w) mods 2^w; the masked unsigned product is
			// exact mod 2^w regardless of signs.
			t := int64((uint64(r0) + uint64(r1)*uint64(tw)) & mask)
			if t >= halfW {
				t -= int64(1) << w
			}
			u = t
			if u > 0 {
				r0 -= alphaA[u>>1]
				r1 -= alphaB[u>>1]
			} else {
				r0 += alphaA[(-u)>>1]
				r1 += alphaB[(-u)>>1]
			}
		}
		digits = append(digits, T(u))
		half := r0 >> 1
		if Mu < 0 {
			r0 = r1 - half
		} else {
			r0 = r1 + half
		}
		r1 = -half
	}
	return digits
}

// TW returns t_w, the image of τ under the ring isomorphism
// Z[τ]/(τ^w) ≅ Z/2^w: the unique even residue modulo 2^w with
// t_w² + 2 ≡ µ·t_w (mod 2^w). It is found by Hensel lifting (the
// derivative 2t − µ is odd, so each lift step is unique).
func TW(w int) int64 {
	if w < 1 || w > 62 {
		panic("koblitz: TW width out of range")
	}
	var t int64 // t ≡ 0 (mod 2): τ maps to 0 in Z[τ]/τ ≅ Z/2
	for k := 1; k < w; k++ {
		// Invariant: t² + 2 − µt ≡ 0 (mod 2^k). Try the next bit.
		mod := int64(1) << (k + 1)
		f := func(x int64) int64 {
			v := (x*x + 2 - int64(Mu)*x) % mod
			return (v + mod) % mod
		}
		if f(t) != 0 {
			t += int64(1) << k
			if f(t) != 0 {
				panic("koblitz: Hensel lifting failed")
			}
		}
	}
	return t
}

// alphaCache holds the window representatives per width, built once:
// WTNAF consults them on every recoding, which sits on the hot path of
// every scalar multiplication. alphaI64 caches the same coordinates as
// immutable int64 arrays for the recoding loops, and twCache the
// width's t_w, which every digit extraction multiplies by.
var (
	alphaOnce  [MaxWide + 1]sync.Once
	alphaCache [MaxWide + 1][]ZTau
	alphaI64   [MaxWide + 1][2][]int64
	twCache    [MaxWide + 1]int64
)

// Alpha returns the window representatives α_u = u mods τ^w for odd
// u = 1, 3, ..., 2^(w−1)−1. Alpha(w)[u>>1] is α_u, the norm-minimal
// element of Z[τ] congruent to u modulo τ^w. These are the elements the
// digit values of a width-w TNAF stand for, and the multiples of the
// input point that must be precomputed ("TNAF Precomputation" in
// Table 7; for w = 4 the digit set is {±α1, ±α3, ±α5, ±α7}). Widths up
// to MaxWide are supported — the int8 recodings stop at MaxW, but the
// wide-window tables (RecodeWide consumers) reach beyond it.
func Alpha(w int) []ZTau {
	if w < MinW || w > MaxWide {
		panic(fmt.Sprintf("koblitz: unsupported window width %d", w))
	}
	buildAlpha(w)
	// Defensive copies: ZTau values share *big.Int internals.
	cached := alphaCache[w]
	alphas := make([]ZTau, len(cached))
	for i, a := range cached {
		alphas[i] = ZTau{new(big.Int).Set(a.A), new(big.Int).Set(a.B)}
	}
	return alphas
}

// buildAlpha populates the width-w caches exactly once.
func buildAlpha(w int) {
	alphaOnce[w].Do(func() {
		tw := TauPow(w)
		alphas := make([]ZTau, 1<<(w-2))
		aI := make([]int64, len(alphas))
		bI := make([]int64, len(alphas))
		for i := range alphas {
			u := int64(2*i + 1)
			_, r := RoundDiv(NewZTau(u, 0), tw)
			alphas[i] = r
			aI[i], bI[i] = r.A.Int64(), r.B.Int64()
		}
		alphaCache[w] = alphas
		alphaI64[w] = [2][]int64{aI, bI}
		twCache[w] = TW(w)
	})
}

// alphaInt64 returns the cached int64 α coordinates and t_w for width
// w. The slices are shared and must not be written.
func alphaInt64(w int) (alphaA, alphaB []int64, tw int64) {
	if w < MinW || w > MaxWide {
		panic(fmt.Sprintf("koblitz: unsupported window width %d", w))
	}
	buildAlpha(w)
	return alphaI64[w][0], alphaI64[w][1], twCache[w]
}

// WTNAF returns the width-w TNAF of ρ: digits least significant first,
// each either 0 or an odd signed integer with |u| < 2^(w−1), such that
// ρ = Σ ξ_i τ^i where ξ_i = sign(d_i)·α_|d_i|. Any nonzero digit is
// followed by at least w−1 zeros. For w = 2 this coincides with TNAF.
func WTNAF(rho ZTau, w int) []int8 {
	if w < MinW || w > MaxW {
		panic(fmt.Sprintf("koblitz: unsupported window width %d", w))
	}
	if w == 2 {
		return TNAF(rho)
	}
	// The α coordinates are tiny; the shared int64 cache serves both
	// the big.Int loop and the fast tail without per-call copies.
	alphaA, alphaB, twi := alphaInt64(w)
	tw := big.NewInt(twi)
	pow := new(big.Int).Lsh(big.NewInt(1), uint(w))    // 2^w
	half := new(big.Int).Lsh(big.NewInt(1), uint(w-1)) // 2^(w-1)

	r0 := new(big.Int).Set(rho.A)
	r1 := new(big.Int).Set(rho.B)
	digits := make([]int8, 0, M+8)
	t := new(big.Int)
	s := new(big.Int)
	half2 := new(big.Int)
	for r0.Sign() != 0 || r1.Sign() != 0 {
		if r0.BitLen() <= smallBits && r1.BitLen() <= smallBits {
			return wtnafSmall(r0.Int64(), r1.Int64(), w, twi, alphaA, alphaB, digits)
		}
		if len(digits) > maxDigits {
			panic("koblitz: WTNAF did not terminate")
		}
		var u int64
		if r0.Bit(0) == 1 {
			// u = (r0 + r1·t_w) mods 2^w — the odd symmetric residue.
			t.Mul(r1, tw)
			t.Add(t, r0)
			t.Mod(t, pow)
			if t.Cmp(half) >= 0 {
				t.Sub(t, pow)
			}
			u = t.Int64() // odd, in [−2^(w−1), 2^(w−1))
			// ρ ← ρ − sign(u)·α_|u|.
			if u > 0 {
				r0.Sub(r0, s.SetInt64(alphaA[u>>1]))
				r1.Sub(r1, s.SetInt64(alphaB[u>>1]))
			} else {
				r0.Add(r0, s.SetInt64(alphaA[(-u)>>1]))
				r1.Add(r1, s.SetInt64(alphaB[(-u)>>1]))
			}
		}
		digits = append(digits, int8(u))
		divTauInPlace(r0, r1, half2)
	}
	return digits
}

// Reconstruct evaluates a digit string back to the Z[τ] element it
// represents: Σ ξ_i τ^i with ξ_i = sign(d_i)·α_|d_i| (α_1 = 1 covers the
// plain TNAF case). It is the inverse used by the recoding tests, for
// both the int8 and the wide int16 digit pipelines.
func Reconstruct[T Digit](digits []T, w int) ZTau {
	var alphas []ZTau
	if w >= MinW {
		alphas = Alpha(max(w, 2))
	} else {
		alphas = []ZTau{NewZTau(1, 0)}
	}
	acc := NewZTau(0, 0)
	for i := len(digits) - 1; i >= 0; i-- {
		acc = acc.MulTau()
		d := digits[i]
		if d == 0 {
			continue
		}
		var xi ZTau
		if d > 0 {
			xi = alphas[d>>1]
		} else {
			xi = alphas[(-d)>>1].Neg()
		}
		acc = acc.Add(xi)
	}
	return acc
}

// Density returns the fraction of nonzero digits, diagnostic for the
// expected 1/(w+1) wTNAF density.
func Density(digits []int8) float64 {
	if len(digits) == 0 {
		return 0
	}
	nz := 0
	for _, d := range digits {
		if d != 0 {
			nz++
		}
	}
	return float64(nz) / float64(len(digits))
}
